//! The per-site readiness reactor: the one thread that owns a TCP
//! site — every fd, the node's kernels and its WAL.
//!
//! One hand-rolled epoll [`Poller`] (`dynvote-net`) multiplexes the
//! listeners, the inbox's [`Waker`] and every connection. The reactor
//! makes the syscalls — `epoll_pwait`, `accept`, nonblocking `connect`,
//! `read`, `write`, `epoll_ctl` — and each connection's sans-IO machine
//! ([`crate::conn`]) decides what the bytes mean: it hands node events
//! up, stages bytes to write, and says which interest it wants next or
//! that it is done.
//!
//! Outbound peer links are dialed lazily and redialed on the node's
//! [`BACKOFF`] schedule (the reactor's [`TimerWheel`]). Each
//! peer's frames wait in one bounded buffer ([`PeerLink`]) that the
//! socket writes straight out of, behind a [`wire::HELLO_PEER`]
//! preamble. A batch that would pile up past the cap behind a slow,
//! stalled or unreachable peer is dropped and counted: loss is legal,
//! silence is not. Inbound connections are accepted up to the cap.
//!
//! The reactor owns the site's [`Node`]. What the machines hand up goes
//! to [`Node::on_event`] with the time the poll returned; once per poll
//! iteration [`Node::end_batch`] seals the batch, and the reactor drains
//! the outbox: peer items onto their peers' buffers, and each answer
//! where its token's [`Waiting`] entry says — a channel, or the
//! connection the slab still holds under the same serial. The reactor
//! keeps `NetStats` and answers from it. The only way in from another
//! thread is the site's inbox (see `crate::cluster`), whose every send
//! rings the [`Waker`].
//!
//! Interest is level-triggered and narrowed — `WRITABLE` only while
//! bytes are pending, `READABLE` dropped while an HTTP op is in flight —
//! so an idle site sleeps in `epoll_pwait` until a socket, its inbox or
//! the node's next deadline wakes it.

use crate::cluster::{ReplySender, SiteEvent};
use crate::conn::{Answer, Conn, Conns, Cx, Kind, Up, Want};
use crate::frontdoor::FrontDoor;
use crate::transport::{NetStats, ReplyTable};
use crate::wire::{self, ClientOp, ClientReply, PeerFrame, HELLO_PEER};
use dynvote_core::{SiteId, TimerWheel};
use dynvote_net::sys::connect_nonblocking;
use dynvote_net::{poll_timeout, Event, Events, Interest, Poller, Token, Waker};
use dynvote_node::{Node, NodeEvent, BACKOFF};
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

/// The bytes waiting for `conn`'s socket: an outbound peer link's are
/// its link's.
fn outgoing<'a>(conn: &'a mut Conn, links: &'a mut [PeerLink]) -> Option<&'a mut Vec<u8>> {
    match conn.link() {
        Some((peer, _)) => Some(&mut links[peer].out),
        None => conn.out(),
    }
}

/// Where the answer to an op handed to the node goes.
enum Waiting {
    /// In-process client: the answer is sent on its channel.
    Channel(ReplySender),
    /// A connection's client, if its machine is still there.
    Conn(Answer),
}

/// Everything a reactor needs at spawn time besides its node.
pub(crate) struct ReactorConfig {
    pub site: SiteId,
    pub peer_addrs: Vec<SocketAddr>,
    pub listener: TcpListener,
    pub http_listener: Option<TcpListener>,
    pub front: Option<FrontDoor>,
    pub max_conns: usize,
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
    timers: TimerWheel<Instant, usize>,
    conns: Conns<TcpStream>,
    /// What the connections handed up since the node last took it.
    up: Vec<Up>,
    stats: NetStats,
    scratch: Vec<u8>,
}

/// The context a connection's machine runs in, borrowed from the
/// reactor's fields one by one so its slab stays free to borrow.
macro_rules! cx {
    ($reactor:ident, $now:expr) => {
        Cx {
            now: $now,
            stats: &mut $reactor.stats,
            front: $reactor.front.as_mut(),
            node: &$reactor.node,
            up: &mut $reactor.up,
        }
    };
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
            timers: TimerWheel::new(),
            conns: Conns::new(config.max_conns),
            up: Vec::new(),
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
                TOKEN_LISTENER => self.accept(false),
                TOKEN_HTTP => self.accept(true),
                Token(t) => self.on_ready(t - FIRST_CONN, ev),
            }
        }
        Ok(())
    }

    /// Hand the node what the connections handed up: each op under a
    /// token for its connection.
    fn feed_up(&mut self) {
        for up in self.up.drain(..) {
            let event = match up {
                Up::Peer { from, frame } => NodeEvent::Peer { from, frame },
                Up::Op { id, op, to } => {
                    let reply = self.waiting.token(Waiting::Conn(to));
                    NodeEvent::Client { id, op, reply }
                }
            };
            self.node.on_event(event, self.now);
            self.fed = true;
        }
    }

    /// Hand the node everything other threads sent. `false` once the
    /// inbox says stop. `NetStats` is answered here, from the counters
    /// this reactor keeps.
    fn drain_inbox(&mut self) -> bool {
        loop {
            match self.inbox.try_recv() {
                Ok(SiteEvent::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Ok(SiteEvent::Node(event)) => {
                    self.node.on_event(event, self.now);
                    self.fed = true;
                }
                Ok(SiteEvent::Client {
                    id,
                    op: ClientOp::NetStats,
                    reply,
                }) => {
                    let counts = self.stats.snapshot();
                    let _ = reply.send((id, ClientReply::NetStats { counts }));
                }
                Ok(SiteEvent::Client { id, op, reply }) => {
                    let reply = self.waiting.token(Waiting::Channel(reply));
                    self.node
                        .on_event(NodeEvent::Client { id, op, reply }, self.now);
                    self.fed = true;
                }
                Ok(SiteEvent::Stats(reply)) => {
                    let _ = reply.send(self.node.shard_stats().clone());
                }
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    /// Move what the batch put in the node's outbox to the sockets:
    /// O(replies + peers). An answered HTTP connection resumes parsing
    /// first, which may hand the node its next request; whatever that
    /// puts in the outbox goes with the next batch.
    fn write_out(&mut self) {
        let now = Instant::now();
        self.stage_outbox(now);
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &slot in &touched {
            if let Some(entry) = self.conns.get_mut(slot) {
                entry.conn.resume(&mut cx!(self, now));
                self.feed_up();
                self.flush(slot);
            }
        }
        touched.clear();
        self.touched = touched;
        self.pump_peer_links();
    }

    /// Empty the node's outbox: seal the peer items onto their links
    /// and stage every reply, noting the connections that gained bytes
    /// in `touched`.
    fn stage_outbox(&mut self, now: Instant) {
        seal(
            &mut self.links,
            self.node.outbox().peers.drain(..),
            &mut self.stats,
        );
        let mut replies = std::mem::take(&mut self.node.outbox().replies);
        for (token, id, reply) in replies.drain(..) {
            match self.waiting.take(token) {
                Some(Waiting::Channel(tx)) => {
                    let _ = tx.send((id, reply));
                }
                Some(Waiting::Conn(to)) => {
                    let staged = self.conns.answer(to, id, &reply, &mut cx!(self, now));
                    self.touched.extend(staged);
                }
                None => {}
            }
        }
        self.node.outbox().replies = replies;
    }

    /// Write each peer link that holds frames, or dial it.
    fn pump_peer_links(&mut self) {
        for peer in 0..self.links.len() {
            let link = &self.links[peer];
            if peer == self.site.index() || link.out.is_empty() {
                continue;
            }
            match link.slot {
                Some(slot) if self.peer_connected(slot) => self.flush(slot),
                Some(_) => {} // connect completion writes the frames
                None if !link.waiting => self.start_connect(peer),
                None => {} // the backoff timer dials when it fires
            }
        }
    }

    /// Whether `slot` is an outbound peer link whose connect completed.
    fn peer_connected(&self, slot: usize) -> bool {
        let link = self.conns.get(slot).and_then(|entry| entry.conn.link());
        matches!(link, Some((_, true)))
    }

    fn start_connect(&mut self, peer: usize) {
        let Ok((fd, connected)) = connect_nonblocking(&self.peer_addrs[peer]) else {
            return self.dial_failed(peer);
        };
        let stream = TcpStream::from(fd);
        let _ = stream.set_nodelay(true);
        // A link that is up writes its hello and frames below; a dial
        // in progress waits for its connect to complete.
        if let Some(slot) = self.open(stream, Kind::PeerOut(peer, connected)) {
            self.links[peer].slot = Some(slot);
            if connected {
                self.on_peer_connected(slot, peer);
            }
        }
    }

    /// The nonblocking connect resolved; check how it went.
    fn finish_connect(&mut self, slot: usize, peer: usize) {
        let Some(entry) = self.conns.get_mut(slot) else {
            return;
        };
        if matches!(entry.io.take_error(), Ok(None)) {
            entry.conn.connected();
            self.on_peer_connected(slot, peer);
        } else {
            self.close_conn(slot);
            self.dial_failed(peer);
        }
    }

    /// The preamble goes ahead of the frames buffered while dialing.
    fn on_peer_connected(&mut self, slot: usize, peer: usize) {
        let link = &mut self.links[peer];
        link.round = 0;
        link.out.splice(0..0, [HELLO_PEER, self.site.0]);
        self.flush(slot);
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
        // The node's retry schedule is in milliseconds; skip the jitter
        // draw (u = 0.5 is the midpoint) — one reactor per process has
        // no retry storm to decorrelate.
        let delay_ms = BACKOFF.delay(round, 0.5).max(1.0);
        let delay = Duration::from_secs_f64(delay_ms / 1000.0);
        self.timers.schedule(Instant::now() + delay, peer);
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

    /// Accept from the binary or the HTTP listener until it has no
    /// connection left to give (`WouldBlock`) or fails. Over the
    /// connection cap, a connection is closed at once so the backlog
    /// never wedges: counted, not silent.
    fn accept(&mut self, http: bool) {
        loop {
            let listener = if http {
                self.http_listener.as_ref()
            } else {
                Some(&self.listener)
            };
            let Some(Ok((stream, _))) = listener.map(TcpListener::accept) else {
                return;
            };
            if self.conns.full() {
                self.stats.bump_conn_rejected();
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.stats.bump_conn_accepted();
            let kind = if http {
                Kind::http()
            } else {
                Kind::Handshake(false)
            };
            self.open(stream, kind);
        }
    }

    /// Give `stream` a slot and register it for what its machine
    /// wants; `None` if registering failed, which closed it.
    fn open(&mut self, stream: TcpStream, kind: Kind) -> Option<usize> {
        let (slot, interest) = self.conns.insert(stream, kind);
        let entry = self.conns.get(slot)?;
        let token = Token(slot + FIRST_CONN);
        if self.poller.register(&entry.io, token, interest).is_err() {
            self.close_conn(slot);
            return None;
        }
        Some(slot)
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(entry) = self.conns.remove(slot) else {
            return;
        };
        if let Some((peer, _)) = entry.conn.link() {
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
        self.stats.bump_conn_closed();
        // Dropping the stream closes the fd, which also removes it
        // from the epoll set.
    }

    fn on_ready(&mut self, slot: usize, ev: Event) {
        let Some(entry) = self.conns.get(slot) else {
            return;
        };
        if let Some((peer, false)) = entry.conn.link() {
            if ev.is_writable() || ev.is_readable() {
                self.finish_connect(slot, peer);
            }
            return;
        }
        if (ev.is_hangup() || ev.is_error()) && entry.conn.closes_on_hangup() {
            self.close_conn(slot);
        } else if !ev.is_readable() || self.read_conn(slot) {
            self.flush(slot);
        }
    }

    /// Read the socket into its machine, and hand the node what the
    /// machine yields. A read short of the chunk emptied the socket, and
    /// the poller is level-triggered: it reports the socket again once
    /// more arrives. Returns `false` if the connection was closed.
    fn read_conn(&mut self, slot: usize) -> bool {
        loop {
            let Some(entry) = self.conns.get_mut(slot) else {
                return false;
            };
            if entry.conn.paused() {
                return true; // interest is narrowed once it flushes
            }
            let read = entry.io.read(&mut self.scratch);
            let open = match &read {
                Ok(0) => {
                    entry.conn.on_eof(&mut self.stats);
                    false
                }
                Ok(n) => entry
                    .conn
                    .on_bytes(&self.scratch[..*n], &mut cx!(self, self.now)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => false,
            };
            self.feed_up();
            if !open {
                self.close_conn(slot);
                return false;
            }
            if matches!(read, Ok(n) if n < READ_CHUNK) {
                return true;
            }
        }
    }

    /// Write as much of the connection's outgoing bytes as the socket
    /// accepts, then apply what its machine wants next.
    fn flush(&mut self, slot: usize) {
        let Some(entry) = self.conns.get_mut(slot) else {
            return;
        };
        let mut pending = false;
        if let Some(out) = outgoing(&mut entry.conn, &mut self.links) {
            while !out.is_empty() {
                match entry.io.write(out) {
                    Ok(0) => return self.close_conn(slot),
                    Ok(written) => {
                        out.drain(..written);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        if entry.conn.link().is_some() {
                            self.stats.bump_write_error();
                        }
                        return self.close_conn(slot);
                    }
                }
            }
            pending = !out.is_empty();
        }
        match entry.conn.want(pending) {
            Want::Close => self.close_conn(slot),
            Want::Io(want) if want != entry.interest => {
                entry.interest = want;
                let token = Token(slot + FIRST_CONN);
                if self.poller.reregister(&entry.io, token, want).is_err() {
                    self.close_conn(slot);
                }
            }
            Want::Io(_) => {}
        }
    }

    /// One best-effort nonblocking write pass over every connection at
    /// shutdown, so what the node's [`Node::finish`] staged usually
    /// makes it out. Paused HTTP connections are not resumed and no
    /// peer is dialed.
    fn final_flush(&mut self) {
        self.stage_outbox(Instant::now());
        for entry in self.conns.iter_mut() {
            if matches!(entry.conn.link(), Some((_, false))) {
                continue; // no preamble yet
            }
            if let Some(out) = outgoing(&mut entry.conn, &mut self.links) {
                if !out.is_empty() {
                    let _ = entry.io.write(out);
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
        use dynvote_node::DEFAULT_VOTE_DEADLINE;
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
            DEFAULT_VOTE_DEADLINE,
        );
        let config = ReactorConfig {
            site: SiteId(0),
            peer_addrs: vec![
                own.local_addr().expect("own address"),
                stalled.local_addr().expect("peer address"),
            ],
            listener: own,
            http_listener: None,
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

    /// Twin of the test above, with no socket: a connected link whose
    /// peer takes no byte keeps asking to write, and the cap holds.
    #[test]
    fn a_link_whose_peer_takes_nothing_holds_at_most_the_cap() {
        let mut stats = NetStats::new();
        let mut links: Vec<PeerLink> = (0..2).map(|_| PeerLink::default()).collect();
        let mut conns = Conns::new(1);
        let (slot, interest) = conns.insert((), Kind::PeerOut(1, true));
        assert_eq!(interest, Interest::READABLE);
        let commit = catch_up(512);
        let mut batch = Vec::new();
        wire::encode_frame_into(&mut batch, |out| wire::encode_message_into(out, &commit));

        let mut held = 0;
        for _ in 0..2_000 {
            let item = (SiteId(1), PeerFrame::Msg(commit.clone()));
            seal(&mut links, [item], &mut stats);
            let conn = &mut conns.get_mut(slot).expect("the link").conn;
            let out = outgoing(conn, &mut links).expect("a link writes its peer's buffer");
            held = held.max(out.len());
            let pending = !out.is_empty();
            let both = Interest::READABLE.add(Interest::WRITABLE);
            assert_eq!(conn.want(pending), Want::Io(both));
        }
        assert!(
            held <= PEER_QUEUE_CAP + batch.len(),
            "{held} bytes held for a peer that takes nothing"
        );
        // Every batch that fits under the cap is kept; the rest drop.
        let kept = (PEER_QUEUE_CAP / batch.len()) as u64;
        assert_eq!(stats.get("backpressure_drops"), 2_000 - kept);
    }
}
