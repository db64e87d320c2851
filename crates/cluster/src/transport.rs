//! What leaves a node: the channel host's delivery of the node's outbox,
//! and the network counters the TCP host keeps.
//!
//! A node performs no output of its own. Its sends, relays and client
//! replies are data in its outbox ([`crate::node::Outbox`]), which the
//! host drains after each batch and transmits — or silently doesn't,
//! because message loss is a legal fault in the dynamic-voting model
//! and every protocol path tolerates it. Two hosts:
//!
//! * the channel host ([`Node::run`]) hands each peer item to the
//!   destination's `mpsc` inbox through [`deliver`]. Zero
//!   serialization; the fastest way to run a whole cluster inside one
//!   test.
//! * the site's readiness reactor ([`crate::reactor`]) encodes each
//!   peer item as one frame onto its peer's one bounded buffer and
//!   writes that to loopback TCP; the node's kernels never wait on a
//!   socket or a dead peer. Link failures are not returned to anyone
//!   — they are *counted*, per cause, in [`NetStats`], and exposed
//!   through the loadgen report, `/metrics`, and the
//!   [`crate::wire::ClientOp::NetStats`] client op.

use crate::node::{Node, NodeEvent, Outbox, ReplySink};
use crate::wire::PeerFrame;
use dynvote_core::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Instant;

/// How many inbox events one batch of the channel host may take before
/// timers fire and the outbox is delivered. Bounded so a message storm
/// cannot starve timers; large enough that a commit fan-in coalesces
/// into one batch.
const INBOX_BATCH: usize = 128;

impl Node {
    /// The channel host: block on `inbox` until the node's next
    /// deadline (or, with none pending, until an event arrives), hand
    /// the burst queued behind the first event (bounded by
    /// [`INBOX_BATCH`]) to the node with the time read after the wait,
    /// then close the batch and hand its outbox to `peers` (every
    /// site's inbox, indexed by site); repeat until
    /// [`NodeEvent::Shutdown`] or until every sender is gone.
    pub fn run(mut self, inbox: Receiver<NodeEvent>, peers: &[Sender<NodeEvent>]) {
        self.start(Instant::now());
        deliver(self.id, peers, &mut self.out);
        'outer: loop {
            let first = match self.next_timer_in(Instant::now()) {
                Some(timeout) => inbox.recv_timeout(timeout),
                None => inbox.recv().map_err(RecvTimeoutError::from),
            };
            if matches!(first, Err(RecvTimeoutError::Disconnected)) {
                break;
            }
            let now = Instant::now();
            for event in first.into_iter().chain(inbox.try_iter()).take(INBOX_BATCH) {
                if matches!(event, NodeEvent::Shutdown) {
                    break 'outer;
                }
                self.on_event(event, now);
            }
            self.end_batch(now);
            deliver(self.id, peers, &mut self.out);
        }
        self.finish(Instant::now());
        deliver(self.id, peers, &mut self.out);
    }
}

/// The channel host's drain: each peer item becomes an event from
/// `from` in its destination's inbox (`peers`, indexed by site), and
/// each in-process reply goes to its client's channel. A closed or
/// missing inbox is a lost message.
pub(crate) fn deliver(from: SiteId, peers: &[Sender<NodeEvent>], out: &mut Outbox) {
    for (to, item) in out.peers.drain(..) {
        if let Some(peer) = peers.get(to.index()) {
            let _ = peer.send(match item {
                PeerFrame::Msg(msg) => NodeEvent::Peer { from, msg },
                PeerFrame::Relay(relay) => NodeEvent::Relay { from, relay },
            });
        }
    }
    for (sink, id, reply) in out.replies.drain(..) {
        // Only in-process clients reach a channel site.
        if let ReplySink::Channel(tx) = sink {
            let _ = tx.send((id, reply));
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
        "A batch's frames for a peer were dropped because its link's buffer was full."
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
    use crate::wire::{ClientReply, Relay};
    use dynvote_protocol::{Message, TxnId};
    use std::sync::mpsc;

    fn abort(seq: u64) -> PeerFrame {
        PeerFrame::Msg(Message::Abort {
            txn: TxnId::new(SiteId(0), seq),
        })
    }

    #[test]
    fn channel_transport_delivers_with_sender_identity() {
        let (tx, rx) = mpsc::channel();
        let mut out = Outbox::default();
        out.peers.push((SiteId(1), abort(7)));
        let relay = Relay::Forward {
            id: 3,
            key: 0,
            read: false,
        };
        out.peers.push((SiteId(1), PeerFrame::Relay(relay.clone())));
        let (client, replies) = mpsc::channel();
        out.replies
            .push((ReplySink::Channel(client), 5, ClientReply::Ok));
        deliver(SiteId(2), &[tx.clone(), tx], &mut out);
        assert_eq!(replies.recv().unwrap(), (5, ClientReply::Ok));
        match rx.recv().unwrap() {
            NodeEvent::Peer { from, msg } => {
                assert_eq!(from, SiteId(2));
                assert_eq!(PeerFrame::Msg(msg), abort(7));
            }
            other => panic!("unexpected event {other:?}"),
        }
        match rx.recv().unwrap() {
            NodeEvent::Relay { from, relay: got } => {
                assert_eq!(from, SiteId(2));
                assert_eq!(got, relay);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(out.peers.is_empty() && out.replies.is_empty());
    }

    #[test]
    fn channel_transport_tolerates_closed_and_missing_peers() {
        let (tx, rx) = mpsc::channel();
        drop(rx);
        let mut out = Outbox::default();
        out.peers.push((SiteId(0), abort(1))); // closed inbox
        out.peers.push((SiteId(9), abort(2))); // out of range
        deliver(SiteId(0), &[tx], &mut out);
        assert!(out.peers.is_empty());
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
