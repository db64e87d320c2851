//! On a lossless path the node never waits on a clock. Timers exist for
//! loss — a silent peer, a dropped frame, a crashed coordinator — so
//! when every frame lands at the instant it was sent, every op is
//! answered at that instant and no node is left with a deadline.

mod common;

use common::{answered, pump};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_node::DEFAULT_VOTE_DEADLINE;
use dynvote_node::{ClientOp, ClientReply, Node, NodeEvent, ReplyTo};
use dynvote_protocol::EventKind;
use dynvote_storage::{FsyncPolicy, StoreConfig};
use std::path::Path;
use std::time::Instant;

/// Site `id` of an `n`-site cluster hosting `objects` objects.
fn site(id: usize, n: usize, objects: usize, algorithm: AlgorithmKind) -> Node {
    Node::new(
        SiteId::new(id),
        n,
        objects,
        algorithm,
        DEFAULT_VOTE_DEADLINE,
    )
}

/// Give every node its own data directory under `root`, each WAL append
/// forced before the action that announced it leaves the node.
fn make_durable(nodes: &mut [Node], root: &Path, now: Instant) {
    for (id, node) in nodes.iter_mut().enumerate() {
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
        };
        node.open_store(&site_dir(root, id), config)
            .expect("a fresh data directory opens");
        node.start(now);
    }
}

fn site_dir(root: &Path, id: usize) -> std::path::PathBuf {
    root.join(format!("site-{id}"))
}

/// The bytes each site's data directory holds.
fn disk_bytes(root: &Path, n: usize) -> Vec<u64> {
    let bytes = |id| {
        let files = std::fs::read_dir(site_dir(root, id)).expect("a data directory");
        files.map(|f| f.expect("an entry").metadata().expect("a size").len())
    };
    (0..n).map(|id| bytes(id).sum()).collect()
}

fn update(id: u64) -> NodeEvent {
    NodeEvent::Client {
        id,
        op: ClientOp::Update { key: 0 },
        reply: ReplyTo(id),
    }
}

#[test]
fn a_committed_update_leaves_no_timer_armed_on_any_node() {
    let mut nodes: Vec<Node> = (0..5)
        .map(|id| site(id, 5, 1, AlgorithmKind::Hybrid))
        .collect();
    let deadline = DEFAULT_VOTE_DEADLINE;
    let t = Instant::now();
    // The first round waits the whole deadline for peers it has not
    // heard; the second arms the straggler grace beside it, which
    // the commit must clear as well.
    for (version, first_timer) in [(1, deadline), (2, deadline / 8)] {
        nodes[0].on_event(update(version), t);
        nodes[0].end_batch(t);
        assert_eq!(nodes[0].next_timer_in(t), Some(first_timer));
        assert_eq!(
            pump(&mut nodes, t),
            12,
            "four vote requests, four votes, four commits"
        );
        assert_eq!(
            answered(&mut nodes[0]),
            [(version, ClientReply::Committed { version })]
        );
        // With no deadline left, the node also checks (in debug builds)
        // that no round timer outlived its wheel entry.
        for (id, node) in nodes.iter_mut().enumerate() {
            assert_eq!(node.next_timer_in(t), None, "site {id}");
        }
    }
}

/// One batch of client ops: `(site, op)`, each handed to its site at
/// the same instant.
type Phase = Vec<(usize, ClientOp)>;

/// The shapes, by name: one or more phases, run one after another.
fn shapes() -> Vec<(&'static str, Vec<Phase>)> {
    let update = |key| ClientOp::Update { key };
    let read = (0, ClientOp::Read { key: 0 });
    let rivals = vec![(0, update(0)), (1, update(0))];
    vec![
        ("a single update", vec![vec![(0, update(0))]]),
        // Run on nodes with data directories: votes and commits wait on
        // an fsync, not on a clock.
        ("a durable update", vec![vec![(0, update(0))]]),
        ("a read", vec![vec![read.clone()]]),
        ("8 ops on one key", vec![vec![(0, update(0)); 8]]),
        ("8 reads on one key", vec![vec![read.clone(); 8]]),
        (
            "reads and updates on one key",
            vec![vec![
                read.clone(),
                read.clone(),
                (0, update(0)),
                (0, update(0)),
                read,
            ]],
        ),
        (
            "8 ops over 8 keys",
            vec![(0..8).map(|k| (0, update(k))).collect()],
        ),
        ("two rival coordinators", vec![rivals.clone()]),
        // Site 1 lost the race to a lower-numbered rival, so its next
        // op on the key goes to site 0.
        ("a forwarded op", vec![rivals, vec![(1, update(0))]]),
    ]
}

#[test]
fn every_op_on_a_lossless_path_is_answered_at_once_and_leaves_no_timer() {
    let t = Instant::now();
    for algorithm in AlgorithmKind::ALL {
        for n in 2..=5 {
            for (shape, phases) in shapes() {
                let case = format!("{algorithm:?}, n = {n}, {shape}");
                let mut nodes: Vec<Node> = (0..n).map(|id| site(id, n, 8, algorithm)).collect();
                let root = std::env::temp_dir().join(format!(
                    "dynvote-lossless-{}-{algorithm:?}-{n}",
                    std::process::id()
                ));
                let durable = shape == "a durable update";
                let mut opened = Vec::new();
                if durable {
                    let _ = std::fs::remove_dir_all(&root);
                    make_durable(&mut nodes, &root, t);
                    opened = disk_bytes(&root, n);
                }
                let mut next_id = 0;
                let mut forwarded = 0;
                for phase in phases {
                    forwarded = nodes[1].shard_stats().forwarded_out();
                    let mut asked = Vec::new();
                    for (at, op) in phase {
                        next_id += 1;
                        asked.push(next_id);
                        let reply = ReplyTo(next_id);
                        let event = NodeEvent::Client {
                            id: next_id,
                            op,
                            reply,
                        };
                        nodes[at].on_event(event, t);
                    }
                    for node in &mut nodes {
                        node.end_batch(t);
                    }
                    pump(&mut nodes, t);
                    let mut got: Vec<u64> = nodes
                        .iter_mut()
                        .flat_map(|node| answered(node).into_iter().map(|(id, _)| id))
                        .collect();
                    got.sort_unstable();
                    assert_eq!(got, asked, "{case}: answered at t0");
                    for (id, node) in nodes.iter_mut().enumerate() {
                        assert_eq!(node.next_timer_in(t), None, "{case}: site {id}");
                    }
                }
                if shape == "a forwarded op" {
                    let travelled = nodes[1].shard_stats().forwarded_out() - forwarded;
                    assert_eq!(travelled, 1, "{case}: the last op travelled");
                }
                if durable {
                    let written = disk_bytes(&root, n);
                    let grew = written.iter().zip(&opened).all(|(w, o)| w > o);
                    assert!(grew, "{case}: every site logged the update");
                    drop(nodes);
                    std::fs::remove_dir_all(&root).expect("the data directories go");
                }
            }
        }
    }
}

/// Ops parked behind a held lock drain one run of same-kind ops per
/// round, in FIFO order: the two reads share a round, the two updates
/// land at consecutive versions in the next, and the last read runs
/// after them.
#[test]
fn a_parked_fifo_runs_one_round_per_run_of_same_kind_ops() {
    let t = Instant::now();
    let mut nodes: Vec<Node> = (0..3)
        .map(|id| site(id, 3, 1, AlgorithmKind::Hybrid))
        .collect();
    let client = |id, read| {
        let op = if read {
            ClientOp::Read { key: 0 }
        } else {
            ClientOp::Update { key: 0 }
        };
        let reply = ReplyTo(id);
        NodeEvent::Client { id, op, reply }
    };
    // Op 0 takes the object's lock; the other five queue behind it.
    for (id, read) in (0..).zip([false, true, true, false, false, true]) {
        nodes[0].on_event(client(id, read), t);
    }
    nodes[0].end_batch(t);
    pump(&mut nodes, t);

    let committed = |version| ClientReply::Committed { version };
    assert_eq!(
        answered(&mut nodes[0]),
        [
            (0, committed(1)),
            (1, ClientReply::ReadServed),
            (2, ClientReply::ReadServed),
            (3, committed(2)),
            (4, committed(3)),
            (5, ClientReply::ReadServed),
        ]
    );
    let events = nodes[0].event_counts();
    let quorums = events[EventKind::QuorumAssembled as usize];
    assert_eq!(quorums, 4, "op 0's round and three more");
    assert_eq!(events[EventKind::ReadServed as usize], 2, "two read rounds");
    let batches = &nodes[0].shard_stats().snapshot()[5..];
    assert_eq!(
        batches,
        [1, 1, 0, 0, 0, 0, 0, 0],
        "update rounds of 1 and 2 ops"
    );
}
