//! Pluggable inter-site message transports.
//!
//! A [`Transport`] is a node's *outbound* half: the node runtime hands
//! it `(destination, message)` pairs and it delivers them — or silently
//! doesn't, because message loss is a legal fault in the dynamic-voting
//! model and every protocol path tolerates it. The *inbound* half is a
//! plain `mpsc::Sender<NodeEvent>` that the delivery machinery (a
//! peer's channel clone, or the node's reactor thread) feeds.
//!
//! Two implementations:
//!
//! * [`ChannelTransport`] — in-process `std::sync::mpsc` fan-out. Zero
//!   serialization; the fastest way to run a whole cluster inside one
//!   test.
//! * [`crate::ReactorTransport`] — loopback TCP via the node's
//!   readiness reactor ([`crate::reactor`]). Sends are buffered per
//!   peer and pushed by [`Transport::flush`] into shared queues the
//!   reactor thread drains; the node thread never performs socket I/O
//!   and never blocks on a dead peer. Link failures are not returned to
//!   the caller at all — they are *counted*, per cause, in [`NetStats`]
//!   (the PR 7 replacement for the old `take_error` one-slot surface),
//!   and exposed through the loadgen report, `/metrics`, and the
//!   [`crate::wire::ClientOp::NetStats`] client op.

use crate::node::NodeEvent;
use crate::wire::Relay;
use dynvote_core::SiteId;
use dynvote_protocol::Message;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;

/// Why an outbound link or inbound connection failed. Delivery stays
/// best-effort — a failed link means lost messages, which the protocol
/// tolerates — but the *cause* is typed instead of being swallowed by
/// `.ok()?` chains. The reactor aggregates these causes into
/// [`NetStats`] tallies rather than surfacing one error at a time.
#[derive(Debug)]
pub enum TransportError {
    /// No listen address is known for the destination site.
    UnknownPeer(SiteId),
    /// Dialing the peer failed or timed out.
    Dial(io::Error),
    /// The [`crate::wire::HELLO_PEER`] preamble could not be written
    /// after connecting.
    Hello(io::Error),
    /// Writing buffered frames to an established connection failed.
    Write(io::Error),
    /// Reading from an established connection failed (includes the
    /// peer hanging up — legal message loss, but no longer anonymous).
    Read(io::Error),
    /// A received frame body failed to decode.
    Decode(crate::wire::WireError),
    /// An inbound connection announced an unknown preamble byte.
    BadPreamble(u8),
    /// The node's inbox is closed (shutdown); the connection is done.
    NodeGone,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(site) => {
                write!(f, "no address known for peer site {site}")
            }
            TransportError::Dial(e) => write!(f, "dialing peer failed: {e}"),
            TransportError::Hello(e) => write!(f, "peer handshake failed: {e}"),
            TransportError::Write(e) => write!(f, "writing to peer failed: {e}"),
            TransportError::Read(e) => write!(f, "reading from connection failed: {e}"),
            TransportError::Decode(e) => write!(f, "malformed frame: {e}"),
            TransportError::BadPreamble(b) => {
                write!(f, "unknown connection preamble byte {b:#04x}")
            }
            TransportError::NodeGone => write!(f, "node inbox closed"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::UnknownPeer(_)
            | TransportError::BadPreamble(_)
            | TransportError::NodeGone => None,
            TransportError::Dial(e)
            | TransportError::Hello(e)
            | TransportError::Write(e)
            | TransportError::Read(e) => Some(e),
            TransportError::Decode(e) => Some(e),
        }
    }
}

/// A node's outbound message path. Delivery is best-effort by design.
pub trait Transport: Send {
    /// Deliver `msg` to site `to`, or drop it if the destination is
    /// unreachable. Must not block indefinitely. A transport may buffer
    /// until [`Transport::flush`].
    fn send(&mut self, to: SiteId, msg: &Message);

    /// Deliver a relayed client op or its answer to site `to`, on the
    /// same best-effort terms (and the same link) as [`Transport::send`].
    fn relay(&mut self, to: SiteId, relay: Relay);

    /// Push any buffered frames to the wire. The node runtime calls
    /// this once per event-loop batch (and on idle timeouts); eager
    /// transports need not override the no-op default.
    fn flush(&mut self) {}
}

/// In-process transport: every peer's inbox is an `mpsc` sender.
pub struct ChannelTransport {
    from: SiteId,
    peers: Vec<Sender<NodeEvent>>,
}

impl ChannelTransport {
    /// A transport for site `from`, given every node's inbox (indexed
    /// by site).
    #[must_use]
    pub fn new(from: SiteId, peers: Vec<Sender<NodeEvent>>) -> Self {
        ChannelTransport { from, peers }
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: SiteId, msg: &Message) {
        if let Some(peer) = self.peers.get(to.index()) {
            // A closed inbox means the peer shut down — equivalent to a
            // lost message.
            let _ = peer.send(NodeEvent::Peer {
                from: self.from,
                msg: msg.clone(),
            });
        }
    }

    fn relay(&mut self, to: SiteId, relay: Relay) {
        if let Some(peer) = self.peers.get(to.index()) {
            let _ = peer.send(NodeEvent::Relay {
                from: self.from,
                relay,
            });
        }
    }
}

/// Per-node network counters, shared between the reactor thread (which
/// bumps them) and everything that reports them: the loadgen JSON
/// report, the `/metrics` exposition, and the
/// [`crate::wire::ClientOp::NetStats`] client op (whose reply carries
/// [`NetStats::snapshot`] in [`NetStats::NAMES`] order).
///
/// Lock-free relaxed atomics: the counters are monotonic tallies, not
/// synchronization — a reader may see a snapshot mid-update and that is
/// fine.
#[derive(Debug, Default)]
pub struct NetStats {
    counters: [AtomicU64; NetStats::COUNT],
}

macro_rules! net_counters {
    ($(($idx:expr, $name:literal, $bump:ident, $doc:literal)),+ $(,)?) => {
        impl NetStats {
            /// How many counters a [`NetStats`] carries.
            pub const COUNT: usize = [$($name),+].len();

            /// Stable counter names, index-aligned with
            /// [`NetStats::snapshot`]. The order is part of the wire
            /// contract of [`crate::wire::ClientReply::NetStats`].
            pub const NAMES: [&'static str; NetStats::COUNT] = [$($name),+];

            $(
                #[doc = $doc]
                pub fn $bump(&self) {
                    self.counters[$idx].fetch_add(1, Ordering::Relaxed);
                }
            )+
        }
    };
}

net_counters![
    (
        0,
        "conns_accepted",
        bump_conn_accepted,
        "An inbound connection was accepted."
    ),
    (
        1,
        "conns_closed",
        bump_conn_closed,
        "A connection (any kind) was torn down."
    ),
    (
        2,
        "conns_rejected",
        bump_conn_rejected,
        "An inbound connection was refused: over the connection cap."
    ),
    (
        3,
        "peer_dial_failures",
        bump_dial_failure,
        "An outbound peer dial failed; the queued batch was dropped."
    ),
    (
        4,
        "peer_write_errors",
        bump_write_error,
        "Writing to an established peer link failed; it will be re-dialed."
    ),
    (
        5,
        "backpressure_drops",
        bump_backpressure_drop,
        "A flush batch was dropped because the peer's queue was full."
    ),
    (
        6,
        "frames_in",
        bump_frame_in,
        "A well-formed inbound frame (peer or binary client) was decoded."
    ),
    (
        7,
        "decode_errors",
        bump_decode_error,
        "An inbound frame or stream failed to decode; the connection died."
    ),
    (
        8,
        "bad_preambles",
        bump_bad_preamble,
        "An inbound connection announced an unknown preamble byte."
    ),
    (
        9,
        "http_requests",
        bump_http_request,
        "A well-formed HTTP request reached the router."
    ),
    (
        10,
        "http_responses",
        bump_http_response,
        "An HTTP response was staged for write."
    ),
    (
        11,
        "http_rejected_429",
        bump_http_rejected,
        "An op was refused with 429: inflight budget exhausted."
    ),
    (
        12,
        "http_parse_errors",
        bump_http_error,
        "An HTTP connection died on a malformed request."
    ),
];

impl NetStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Current counter values, index-aligned with [`NetStats::NAMES`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// One counter by name, mostly for tests.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        NetStats::NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counters[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_protocol::TxnId;
    use std::sync::mpsc;

    fn abort(seq: u64) -> Message {
        Message::Abort {
            txn: TxnId::new(SiteId(0), seq),
        }
    }

    #[test]
    fn channel_transport_delivers_with_sender_identity() {
        let (tx, rx) = mpsc::channel();
        let mut t = ChannelTransport::new(SiteId(2), vec![tx.clone(), tx]);
        t.send(SiteId(1), &abort(7));
        match rx.recv().unwrap() {
            NodeEvent::Peer { from, msg } => {
                assert_eq!(from, SiteId(2));
                assert_eq!(msg, abort(7));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn channel_transport_tolerates_closed_and_missing_peers() {
        let (tx, rx) = mpsc::channel();
        drop(rx);
        let mut t = ChannelTransport::new(SiteId(0), vec![tx]);
        t.send(SiteId(0), &abort(1)); // closed inbox
        t.send(SiteId(9), &abort(2)); // out of range
    }

    #[test]
    fn net_stats_names_align_with_snapshot() {
        let stats = NetStats::new();
        stats.bump_conn_accepted();
        stats.bump_backpressure_drop();
        stats.bump_backpressure_drop();
        stats.bump_http_rejected();
        let snap = stats.snapshot();
        assert_eq!(snap.len(), NetStats::NAMES.len());
        assert_eq!(stats.get("conns_accepted"), 1);
        assert_eq!(stats.get("backpressure_drops"), 2);
        assert_eq!(stats.get("http_rejected_429"), 1);
        assert_eq!(stats.get("no_such_counter"), 0);
        let idx = NetStats::NAMES
            .iter()
            .position(|n| *n == "backpressure_drops")
            .unwrap();
        assert_eq!(snap[idx], 2);
    }
}
