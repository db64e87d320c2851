//! A lossless network for node tests, driven only through the node's
//! public calls: site `i` is `nodes[i]`, and every peer item is handed
//! to its target at the instant the test names — no sockets, no
//! threads, no sleeps.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use dynvote_core::SiteId;
use dynvote_node::{ClientReply, Node, NodeEvent};
use std::time::Instant;

/// Hand every peer item in the nodes' outboxes to its target at `now`,
/// then close the batch of each node that got one, until no node has
/// anything left to send. Client replies stay in the outboxes. Returns
/// how many peer items moved.
pub fn pump(nodes: &mut [Node], now: Instant) -> usize {
    let mut moved = 0;
    loop {
        let mut items = Vec::new();
        for (from, node) in nodes.iter_mut().enumerate() {
            let from = SiteId::new(from);
            items.extend(
                node.outbox()
                    .peers
                    .drain(..)
                    .map(|(to, item)| (from, to, item)),
            );
        }
        if items.is_empty() {
            return moved;
        }
        moved += items.len();
        let mut touched = vec![false; nodes.len()];
        for (from, to, item) in items {
            nodes[to.index()].on_event(NodeEvent::Peer { from, frame: item }, now);
            touched[to.index()] = true;
        }
        for (node, touched) in nodes.iter_mut().zip(touched) {
            if touched {
                node.end_batch(now);
            }
        }
    }
}

/// Take the client replies out of the node's outbox as `(id, reply)`.
pub fn answered(node: &mut Node) -> Vec<(u64, ClientReply)> {
    let replies = node.outbox().replies.drain(..);
    replies.map(|(_, id, reply)| (id, reply)).collect()
}
