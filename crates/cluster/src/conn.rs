//! The reactor's connections as sans-IO state machines: every rule a
//! connection follows, with no socket, poller or clock in sight.
//!
//! The reactor ([`crate::reactor`]) accepts, dials, reads, writes and
//! registers interest; everything in between is here. A connection's
//! machine, [`Conn`], takes bytes read ([`Conn::on_bytes`]), the end of
//! the stream ([`Conn::on_eof`]), a hang-up ([`Conn::closes_on_hangup`])
//! or the node's answer to one of its ops ([`Conns::answer`]). It yields
//! node events (the [`Up`] list the reactor hands the node), bytes to
//! write (in its own buffer; an outbound peer link's wait in its peer's)
//! and what it wants next ([`Conn::want`]): an [`Interest`], or to close.
//! Each kind owns only its own state:
//!
//! * **handshake** — an inbound connection until its preamble says what
//!   it is: [`HELLO_CLIENT`] makes a binary client, [`HELLO_PEER`] and a
//!   site byte an inbound peer; anything else is counted and closed;
//! * **inbound peer** — `[len][body]` frames become peer events;
//! * **binary client** — frames become client ops, answered framed;
//!   `NetStats` is answered on the spot from the reactor's counters;
//! * **outbound peer** — writable once its dial completes; bytes read on
//!   it are noise;
//! * **HTTP** — one request at a time: an op pauses the connection until
//!   its answer is staged (pipelining ops would reorder replies), an op
//!   over the inflight budget gets `429` with `retry-after: 1`, and
//!   `/metrics`, `4xx`s and parse errors are answered on the spot.
//!
//! [`Conns`] is the slab they live in, generic over the socket. A slot
//! is reused once its connection closes, so an answer names its
//! connection by slot *and* serial: an answer for a connection that is
//! gone is dropped, after giving back its admission slot.

use crate::frontdoor::{parse_op, write_reply, FrontDoor};
use crate::transport::NetStats;
use crate::wire::{self, ClientOp, ClientReply, PeerFrame, WireError, HELLO_CLIENT, HELLO_PEER};
use dynvote_core::SiteId;
use dynvote_net::{http, FrameDecoder, Interest, Method, Request, RequestParser};
use dynvote_node::Node;
use std::time::Instant;

const JSON: &str = "application/json";

/// One connection: the slot it lives in, and which of the slot's
/// tenants it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnId {
    slot: usize,
    serial: u64,
}

/// What a machine wants from the reactor next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Stay registered for these readiness directions.
    Io(Interest),
    Close,
}

/// What a connection hands up to the node.
#[derive(Debug, PartialEq)]
pub(crate) enum Up {
    /// One item of a peer's link.
    Peer { from: SiteId, frame: PeerFrame },
    /// A client op, whose answer goes back as `to` says.
    Op { id: u64, op: ClientOp, to: Answer },
}

/// Where the answer to a connection's op goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    /// A binary client's op: a reply frame.
    Frame(ConnId),
    /// An HTTP op: a response that closes the connection unless
    /// `keep_alive`. `admitted` is when the op took an admission slot,
    /// which its answer gives back whether or not the connection stayed.
    Http {
        conn: ConnId,
        keep_alive: bool,
        admitted: Option<Instant>,
    },
}

/// What a machine may read and bump besides its own state: the
/// reactor's counters and front door, the node's counters for
/// `/metrics` and `/status`, and the list it hands events up in.
pub(crate) struct Cx<'a> {
    /// When ops handed up now start, and answers staged now end.
    pub now: Instant,
    pub stats: &'a mut NetStats,
    pub front: Option<&'a mut FrontDoor>,
    pub node: &'a Node,
    pub up: &'a mut Vec<Up>,
}

/// A connection's kind, and the state only that kind has.
pub(crate) enum Kind {
    /// Inbound, before its preamble is complete; `true` once
    /// [`HELLO_PEER`] arrived and the site byte is due.
    Handshake(bool),
    /// An inbound peer link from a site.
    PeerIn(SiteId, FrameDecoder),
    /// A binary client, and the bytes for its socket.
    Client(FrameDecoder, Vec<u8>),
    /// An outbound link to a peer (its bytes wait in its peer's
    /// buffer), and whether its dial completed.
    PeerOut(usize, bool),
    Http(Http),
}

/// An HTTP connection's state.
pub(crate) struct Http {
    parser: RequestParser,
    out: Vec<u8>,
    /// An op is in flight; reading and parsing pause until its answer
    /// is staged.
    blocked: bool,
    /// Close once `out` drains (`connection: close`, parse errors).
    closing: bool,
}

impl Kind {
    /// An accepted HTTP connection.
    pub(crate) fn http() -> Kind {
        Kind::Http(Http {
            parser: RequestParser::new(),
            out: Vec::new(),
            blocked: false,
            closing: false,
        })
    }
}

/// One connection's state machine.
pub(crate) struct Conn {
    id: ConnId,
    kind: Kind,
}

impl Conn {
    /// An outbound link's peer, and whether its dial completed.
    pub(crate) fn link(&self) -> Option<(usize, bool)> {
        match self.kind {
            Kind::PeerOut(peer, connected) => Some((peer, connected)),
            _ => None,
        }
    }

    /// The outbound link's dial completed.
    pub(crate) fn connected(&mut self) {
        if let Kind::PeerOut(_, connected) = &mut self.kind {
            *connected = true;
        }
    }

    /// The bytes for the socket, if this connection keeps its own.
    pub(crate) fn out(&mut self) -> Option<&mut Vec<u8>> {
        match &mut self.kind {
            Kind::Client(_, out) | Kind::Http(Http { out, .. }) => Some(out),
            _ => None,
        }
    }

    /// Reading stops while an HTTP op is in flight or the connection is
    /// closing.
    pub(crate) fn paused(&self) -> bool {
        matches!(&self.kind, Kind::Http(http) if http.blocked || http.closing)
    }

    /// The poller reported a hang-up or an error: whether to close now.
    /// A reset socket reports them on every poll, whatever its interest,
    /// and a paused connection never reads to find out, so it closes, or
    /// the loop would spin until its op is answered. Any other
    /// connection reads, and its read says.
    pub(crate) fn closes_on_hangup(&self) -> bool {
        self.paused()
    }

    /// What to ask the poller for, given whether bytes wait for the
    /// socket: `WRITABLE` iff they do, `READABLE` unless paused. A
    /// closing connection closes once it has written everything, and a
    /// dial waits for its connect, which surfaces as writability.
    pub(crate) fn want(&self, pending: bool) -> Want {
        match &self.kind {
            Kind::PeerOut(_, false) => return Want::Io(Interest::WRITABLE),
            Kind::Http(http) if http.closing && !pending => return Want::Close,
            _ => {}
        }
        let mut want = Interest::NONE;
        if pending {
            want = want.add(Interest::WRITABLE);
        }
        if !self.paused() {
            want = want.add(Interest::READABLE);
        }
        Want::Io(want)
    }

    /// Bytes read from the socket. `false`: close (a bad preamble or a
    /// bad frame, each counted).
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], cx: &mut Cx) -> bool {
        let conn = self.id;
        match &mut self.kind {
            Kind::Handshake(peer) => {
                let Some((&byte, rest)) = bytes.split_first() else {
                    return true;
                };
                let frames = FrameDecoder::new(wire::MAX_FRAME);
                self.kind = match (*peer, byte) {
                    (true, site) => Kind::PeerIn(SiteId(site), frames),
                    (false, HELLO_PEER) => Kind::Handshake(true),
                    (false, HELLO_CLIENT) => Kind::Client(frames, Vec::new()),
                    (false, _) => {
                        cx.stats.bump_bad_preamble();
                        return false;
                    }
                };
                self.on_bytes(rest, cx)
            }
            Kind::PeerIn(from, frames) => {
                let from = *from;
                let each = |frame, _: &NetStats| cx.up.push(Up::Peer { from, frame });
                deframe(frames, bytes, cx.stats, wire::decode_peer_frame, each)
            }
            Kind::Client(frames, out) => {
                let each = |(id, op), stats: &NetStats| {
                    if op != ClientOp::NetStats {
                        let to = Answer::Frame(conn);
                        return cx.up.push(Up::Op { id, op, to });
                    }
                    let counts = stats.snapshot();
                    let reply = ClientReply::NetStats { counts };
                    wire::encode_frame_into(out, |out| wire::encode_reply_into(out, id, &reply));
                };
                deframe(frames, bytes, cx.stats, wire::decode_request, each)
            }
            // Peers never send bytes back on our outbound link.
            Kind::PeerOut(..) => true,
            Kind::Http(http) => {
                http.parser.extend(bytes);
                http.process(conn, cx);
                true
            }
        }
    }

    /// The stream ended. A partial frame left behind is a decode error
    /// worth counting.
    pub(crate) fn on_eof(&self, stats: &mut NetStats) {
        if let Kind::PeerIn(_, frames) | Kind::Client(frames, _) = &self.kind {
            if frames.check_eof().is_err() {
                stats.bump_decode_error();
            }
        }
    }

    /// Go on with what arrived while an answered HTTP connection was
    /// paused: the next buffered request may hand the node another op.
    pub(crate) fn resume(&mut self, cx: &mut Cx) {
        if let Kind::Http(http) = &mut self.kind {
            http.process(self.id, cx);
        }
    }
}

/// Feed `bytes` to `frames` and hand each whole frame, decoded with
/// `decode`, to `each` with the counters. `false` for a bad frame,
/// which is counted.
fn deframe<T>(
    frames: &mut FrameDecoder,
    bytes: &[u8],
    stats: &mut NetStats,
    decode: fn(&[u8]) -> Result<T, WireError>,
    mut each: impl FnMut(T, &NetStats),
) -> bool {
    frames.extend(bytes);
    loop {
        let next = match frames.next_frame() {
            Ok(Some(body)) => decode(body).map_err(drop),
            Ok(None) => return true,
            Err(_) => Err(()),
        };
        let Ok(item) = next else {
            stats.bump_decode_error();
            return false;
        };
        stats.bump_frame_in();
        each(item, stats);
    }
}

impl Http {
    /// Parse and route buffered requests until the parser runs dry, an
    /// op pauses the connection, or a parse error closes it once its
    /// error response is written.
    fn process(&mut self, conn: ConnId, cx: &mut Cx) {
        while !self.blocked && !self.closing {
            match self.parser.next_request() {
                Ok(Some(req)) => self.route(conn, req, cx),
                Ok(None) => return,
                Err(e) => {
                    cx.stats.bump_http_error();
                    let body = format!("{{\"error\":\"{e}\"}}");
                    let head = (e.status(), "Bad Request");
                    self.respond(cx.stats, head, JSON, &[], &body, false);
                }
            }
        }
    }

    /// Dispatch one parsed request: an op goes up and pauses the
    /// connection until its answer is staged; the rest is answered here.
    fn route(&mut self, conn: ConnId, req: Request, cx: &mut Cx) {
        cx.stats.bump_http_request();
        let front = cx
            .front
            .as_deref_mut()
            .expect("HTTP comes through the front door");
        let keep_alive = req.keep_alive;
        let (op, charged) = match (req.method, req.target.as_str()) {
            (Method::Post, "/v1/op") => match parse_op(&req.body, front.objects()) {
                Ok(op) if front.try_admit() => (op, true),
                Ok(_) => {
                    cx.stats.bump_http_rejected();
                    let body = "{\"error\":\"inflight budget exhausted\"}";
                    let head = (429, "Too Many Requests");
                    let retry = [("retry-after", "1")];
                    return self.respond(cx.stats, head, JSON, &retry, body, keep_alive);
                }
                // Typed 400s: a bad key tells the client it sent a bad
                // key, not just "bad body".
                Err(e) => {
                    let head = (400, "Bad Request");
                    return self.respond(cx.stats, head, JSON, &[], &e.body(), keep_alive);
                }
            },
            (Method::Get, "/status") => (ClientOp::Status, false),
            (Method::Get, "/metrics") => {
                let (events, shard) = (cx.node.event_counts(), cx.node.shard_stats());
                let body = front.render_metrics(events, cx.stats, shard);
                let text = "text/plain; version=0.0.4";
                return self.respond(cx.stats, (200, "OK"), text, &[], &body, keep_alive);
            }
            (Method::Get | Method::Post | Method::Head, _) => {
                let body = "{\"error\":\"not found\"}";
                return self.respond(cx.stats, (404, "Not Found"), JSON, &[], body, keep_alive);
            }
            (Method::Other, _) => {
                let head = (405, "Method Not Allowed");
                let body = "{\"error\":\"method not allowed\"}";
                return self.respond(cx.stats, head, JSON, &[], body, keep_alive);
            }
        };
        self.blocked = true;
        let admitted = charged.then_some(cx.now);
        let to = Answer::Http {
            conn,
            keep_alive,
            admitted,
        };
        cx.up.push(Up::Op { id: 0, op, to });
    }

    /// Stage a response made here rather than by the node, and count
    /// it: every response staged here or in [`Conns::answer`] is one
    /// `http_responses`.
    fn respond(
        &mut self,
        stats: &mut NetStats,
        (status, reason): (u16, &str),
        content_type: &str,
        extra: &[(&str, &str)],
        body: &str,
        keep_alive: bool,
    ) {
        let (out, body) = (&mut self.out, body.as_bytes());
        http::write_response(out, status, reason, content_type, extra, body, keep_alive);
        self.closing |= !keep_alive;
        stats.bump_http_response();
    }
}

/// The connections, in slots the poller's tokens name, each beside its
/// socket `S` and the interest the poller holds for it.
pub(crate) struct Conns<S> {
    slots: Vec<Option<Slot<S>>>,
    free: Vec<usize>,
    serial: u64,
    open: usize,
    max: usize,
}

/// One open connection.
pub(crate) struct Slot<S> {
    pub io: S,
    pub interest: Interest,
    pub conn: Conn,
}

impl<S> Conns<S> {
    /// An empty slab that holds at most `max` connections at once.
    pub(crate) fn new(max: usize) -> Self {
        Conns {
            slots: Vec::new(),
            free: Vec::new(),
            serial: 0,
            open: 0,
            max,
        }
    }

    /// Whether the connection cap is reached: accepts must be refused.
    pub(crate) fn full(&self) -> bool {
        self.open >= self.max
    }

    /// Open a connection of `kind` on `io`; returns its slot and the
    /// interest to register it with.
    pub(crate) fn insert(&mut self, io: S, kind: Kind) -> (usize, Interest) {
        self.serial += 1;
        self.open += 1;
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let id = ConnId {
            slot,
            serial: self.serial,
        };
        let conn = Conn { id, kind };
        let Want::Io(interest) = conn.want(false) else {
            unreachable!("a new connection has nothing to close on");
        };
        let entry = Some(Slot { io, interest, conn });
        if slot == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[slot] = entry;
        }
        (slot, interest)
    }

    pub(crate) fn get(&self, slot: usize) -> Option<&Slot<S>> {
        self.slots.get(slot)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, slot: usize) -> Option<&mut Slot<S>> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Close the connection in `slot`, freeing the slot for reuse.
    pub(crate) fn remove(&mut self, slot: usize) -> Option<Slot<S>> {
        let entry = self.slots.get_mut(slot)?.take()?;
        self.open -= 1;
        self.free.push(slot);
        Some(entry)
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot<S>> {
        self.slots.iter_mut().flatten()
    }

    /// Stage the node's `reply` to op `id` where `to` says, if the slot
    /// still holds that connection; a reused slot holds another serial.
    /// An admitted HTTP op gives its admission slot back either way:
    /// every admitted op is answered exactly once. Returns the slot if
    /// it gained bytes.
    pub(crate) fn answer(
        &mut self,
        to: Answer,
        id: u64,
        reply: &ClientReply,
        cx: &mut Cx,
    ) -> Option<usize> {
        let conn = match to {
            Answer::Frame(conn) => conn,
            Answer::Http { conn, admitted, .. } => {
                if let Some(started) = admitted {
                    let front = cx
                        .front
                        .as_deref_mut()
                        .expect("HTTP comes through the front door");
                    front.settle(started, cx.now);
                }
                conn
            }
        };
        let entry = self
            .get_mut(conn.slot)
            .filter(|entry| entry.conn.id == conn)?;
        match (&mut entry.conn.kind, to) {
            (Kind::Client(_, out), Answer::Frame(_)) => {
                wire::encode_frame_into(out, |out| wire::encode_reply_into(out, id, reply));
            }
            (Kind::Http(http), Answer::Http { keep_alive, .. }) if http.blocked => {
                write_reply(&mut http.out, reply, keep_alive, cx.node.shard_stats());
                http.blocked = false;
                http.closing |= !keep_alive;
                cx.stats.bump_http_response();
            }
            _ => return None,
        }
        Some(conn.slot)
    }
}

#[cfg(test)]
mod tests {
    //! Every connection rule, byte for byte, with no socket: each test
    //! is the twin of a scenario the socket tests in `tests/frontdoor.rs`
    //! and the reactor's own tests drive through TCP.

    use super::*;
    use dynvote_core::AlgorithmKind;
    use dynvote_node::DEFAULT_VOTE_DEADLINE;
    use dynvote_protocol::{Message, TxnId};

    const POST: &[u8] =
        b"POST /v1/op HTTP/1.1\r\nhost: t\r\ncontent-length: 15\r\n\r\n{\"op\":\"update\"}";

    /// What a machine runs against on a reactor: its counters, a front
    /// door with one admission slot, a node, and the list ops go up in.
    struct Site {
        stats: NetStats,
        front: FrontDoor,
        node: Node,
        up: Vec<Up>,
        conns: Conns<()>,
    }

    impl Site {
        fn new() -> Self {
            let node = Node::new(
                SiteId(0),
                3,
                4,
                AlgorithmKind::Hybrid,
                DEFAULT_VOTE_DEADLINE,
            );
            Site {
                stats: NetStats::new(),
                front: FrontDoor::new(SiteId(0), "hybrid".to_owned(), 4, 1),
                node,
                up: Vec::new(),
                conns: Conns::new(8),
            }
        }

        fn open(&mut self, kind: Kind) -> usize {
            self.conns.insert((), kind).0
        }

        fn parts(&mut self) -> (&mut Conns<()>, Cx<'_>) {
            let Site {
                stats,
                front,
                node,
                up,
                conns,
            } = self;
            let now = Instant::now();
            let front = Some(front);
            (
                conns,
                Cx {
                    now,
                    stats,
                    front,
                    node,
                    up,
                },
            )
        }

        fn conn(&mut self, slot: usize) -> &mut Conn {
            &mut self.conns.get_mut(slot).expect("an open connection").conn
        }

        /// Hand the connection in `slot` bytes; whether it stays open.
        fn feed(&mut self, slot: usize, bytes: &[u8]) -> bool {
            let (conns, mut cx) = self.parts();
            let conn = &mut conns.get_mut(slot).expect("an open connection").conn;
            conn.on_bytes(bytes, &mut cx)
        }

        /// The connection in `slot` reads the end of its stream.
        fn eof(&mut self, slot: usize) {
            let conn = &self.conns.get(slot).expect("an open connection").conn;
            conn.on_eof(&mut self.stats);
        }

        /// The node's answer to the op handed up as `to`.
        fn answer(&mut self, to: Answer, reply: ClientReply) -> Option<usize> {
            let (conns, mut cx) = self.parts();
            conns.answer(to, 9, &reply, &mut cx)
        }

        /// Where the one op handed up since the last call is answered.
        fn handed_up(&mut self, want: ClientOp) -> Answer {
            match std::mem::take(&mut self.up)[..] {
                [Up::Op { ref op, to, .. }] if *op == want => to,
                ref other => panic!("expected one {want:?} op, got {other:?}"),
            }
        }

        /// The bytes the connection in `slot` has for its socket, taken.
        fn written(&mut self, slot: usize) -> String {
            let out = std::mem::take(self.conn(slot).out().expect("its own bytes"));
            String::from_utf8(out).expect("utf-8")
        }
    }

    fn abort(seq: u64) -> PeerFrame {
        PeerFrame::Msg(Message::Abort {
            txn: TxnId::new(SiteId(2), seq),
        })
    }

    const UPDATE: ClientOp = ClientOp::Update { key: 0 };

    /// Twin of `a_reset_http_connection_with_an_op_in_flight_is_closed_not_polled`:
    /// a paused connection reads nothing, so a hang-up must close it, or
    /// the reactor spins on it until its op is answered.
    #[test]
    fn a_paused_http_connection_that_hangs_up_asks_to_close() {
        let mut site = Site::new();
        let slot = site.open(Kind::http());
        assert!(!site.conn(slot).closes_on_hangup(), "an idle one reads");
        assert!(site.feed(slot, POST));
        site.handed_up(UPDATE);
        let conn = site.conn(slot);
        assert!(conn.paused());
        assert_eq!(conn.want(false), Want::Io(Interest::NONE));
        assert!(conn.closes_on_hangup());
    }

    /// Twin of `a_reply_for_a_closed_connection_skips_the_one_that_reuses_its_slot`.
    #[test]
    fn a_reply_for_an_old_serial_is_dropped() {
        let mut site = Site::new();
        let old = site.open(Kind::Handshake(false));
        let mut bytes = vec![HELLO_CLIENT];
        wire::encode_frame_into(&mut bytes, |out| wire::encode_request_into(out, 9, &UPDATE));
        assert!(site.feed(old, &bytes));
        let to = site.handed_up(UPDATE);
        site.conns.remove(old);

        let new = site.open(Kind::Handshake(false));
        assert_eq!(new, old, "the slot is reused");
        assert!(site.feed(new, &bytes));
        let own = site.handed_up(UPDATE);
        let committed = ClientReply::Committed { version: 1 };
        assert_eq!(site.answer(to, committed.clone()), None);
        assert_eq!(site.written(new), "", "the old answer went nowhere");
        assert_eq!(site.answer(own, committed.clone()), Some(new));
        let mut framed = Vec::new();
        wire::encode_frame_into(&mut framed, |out| {
            wire::encode_reply_into(out, 9, &committed)
        });
        assert_eq!(site.written(new).as_bytes(), framed);
    }

    /// Twin of `overload_yields_429_not_hangs`: over the inflight budget
    /// an op is refused without reaching the node, and told when to come
    /// back.
    #[test]
    fn an_op_over_the_inflight_budget_gets_a_429_with_retry_after() {
        let mut site = Site::new();
        let (held, refused) = (site.open(Kind::http()), site.open(Kind::http()));
        assert!(site.feed(held, POST));
        site.handed_up(UPDATE);
        assert!(site.feed(refused, POST));
        assert_eq!(site.up, [], "refused at admission");
        let body = "{\"error\":\"inflight budget exhausted\"}";
        let head = "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                    content-length: 37\r\nretry-after: 1\r\n\r\n";
        assert_eq!(site.written(refused), format!("{head}{body}"));
        assert_eq!(site.stats.get("http_rejected_429"), 1);
        assert_eq!(site.stats.get("http_responses"), 1);
        let keeps_reading = Want::Io(Interest::READABLE);
        assert_eq!(site.conn(refused).want(false), keeps_reading);
    }

    /// Twin of `hung_up_http_ops_give_back_their_admission_slots`.
    #[test]
    fn a_hung_up_http_op_gives_its_admission_slot_back() {
        let mut site = Site::new();
        let slot = site.open(Kind::http());
        assert!(site.feed(slot, POST));
        let to = site.handed_up(UPDATE);
        assert!(!site.front.try_admit(), "the op holds the one slot");
        assert!(site.conn(slot).closes_on_hangup());
        site.conns.remove(slot);
        assert_eq!(site.answer(to, ClientReply::Rejected), None);
        assert!(site.front.try_admit(), "the answer gave the slot back");
    }

    #[test]
    fn a_bad_preamble_is_closed_and_counted() {
        let mut site = Site::new();
        let slot = site.open(Kind::Handshake(false));
        assert!(!site.feed(slot, &[0x7f, HELLO_CLIENT]));
        assert_eq!(site.stats.get("bad_preambles"), 1);
        assert_eq!(site.up, []);
    }

    #[test]
    fn the_connection_cap_counts_every_kind() {
        let mut conns = Conns::new(2);
        let (_, dialing) = conns.insert((), Kind::PeerOut(1, false));
        assert_eq!(
            dialing,
            Interest::WRITABLE,
            "a connect completes as writability"
        );
        assert!(!conns.full());
        let (slot, _) = conns.insert((), Kind::http());
        assert!(conns.full());
        conns.remove(slot);
        assert!(!conns.full());
    }

    /// A peer's preamble and frames, and an HTTP request, decode alike
    /// however the stream is cut.
    #[test]
    fn the_preamble_and_a_request_split_at_every_byte_decode_alike() {
        let mut peer = vec![HELLO_PEER, 2];
        for seq in [1, 2] {
            let PeerFrame::Msg(msg) = abort(seq) else {
                unreachable!()
            };
            wire::encode_frame_into(&mut peer, |out| wire::encode_message_into(out, &msg));
        }
        for cut in 0..=peer.len() {
            let mut site = Site::new();
            let slot = site.open(Kind::Handshake(false));
            assert!(site.feed(slot, &peer[..cut]) && site.feed(slot, &peer[cut..]));
            let from = SiteId(2);
            let frames = [abort(1), abort(2)].map(|frame| Up::Peer { from, frame });
            assert_eq!(site.up, frames, "cut at {cut}");
            assert_eq!(site.stats.get("frames_in"), 2);
            site.eof(slot);
            assert_eq!(site.stats.get("decode_errors"), 0);
        }
        for cut in 0..=POST.len() {
            let mut site = Site::new();
            let slot = site.open(Kind::http());
            assert!(site.feed(slot, &POST[..cut]) && site.feed(slot, &POST[cut..]));
            site.handed_up(UPDATE);
            assert_eq!(site.stats.get("http_requests"), 1, "cut at {cut}");
        }
    }

    #[test]
    fn a_stream_that_ends_mid_frame_is_a_decode_error() {
        let mut site = Site::new();
        let slot = site.open(Kind::Handshake(false));
        assert!(site.feed(slot, &[HELLO_PEER, 2, 9, 0, 0, 0, 1]));
        site.eof(slot);
        assert_eq!(site.stats.get("decode_errors"), 1);
    }
}
