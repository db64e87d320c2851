//! What a node is asked and what it answers: client ops and their
//! replies, and the items its peer links carry. Plain data; the byte
//! codec for each lives with the hosts that put them on a wire.

use dynvote_core::{CopyMeta, SiteSet};
use dynvote_protocol::{LogEntry, Message};

/// A request a client sends to one node.
///
/// Data-plane ops carry the object (`key`) they address; key `0` is the
/// default object, which is what keyless HTTP bodies map to.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Submit an update on one object, coordinated by the receiving
    /// node.
    Update {
        /// The object (shard) to update.
        key: u32,
    },
    /// Submit a read-only request on one object (paper footnote 5).
    Read {
        /// The object (shard) to read.
        key: u32,
    },
    /// Fault injection: crash the site (volatile state lost; durable
    /// prepare/commit records survive). The node process stays up and
    /// keeps answering control traffic.
    Crash,
    /// Fault injection: recover the site; it runs the Section V-C
    /// restart protocol (`Make_Current`).
    Recover,
    /// Fault injection: restrict the site's connectivity to `0` —
    /// messages to and from sites outside the set are dropped, emulating
    /// a network partition at the node boundary (transport-agnostic).
    SetReachable(SiteSet),
    /// Inspect one object's current protocol state on this node.
    Probe {
        /// The object (shard) to inspect.
        key: u32,
    },
    /// Fetch the node's protocol-event tallies (one counter per
    /// [`dynvote_protocol::EventKind`], in declaration order).
    Events,
    /// Fetch one object's durable metadata and full committed log: what
    /// an auditor compares across sites.
    DumpLog {
        /// The object (shard) to dump.
        key: u32,
    },
    /// Fetch a one-shot operational snapshot (algorithm, partition
    /// view, metadata, WAL epoch) — the front door's `GET /status`.
    Status,
    /// Fetch the site's network counters (dial failures, decode errors,
    /// backpressure drops, …). A host with a network answers it from
    /// its own counters; the node has none and answers with no counts.
    NetStats,
    /// Fetch the node's kernel-step counters (steps run, merge-barrier
    /// count, pipelining queue peak and batch sizes) in
    /// [`crate::ShardStats::names`] order.
    ShardStats,
}

/// A node's reply to a [`ClientOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientReply {
    /// The update committed; the node's new version number.
    Committed {
        /// Version installed by the commit.
        version: u64,
    },
    /// The read was served from a distinguished partition.
    ReadServed,
    /// Refused: the partition was not distinguished — this partition
    /// may not write.
    Rejected,
    /// Refused: the round lost a lock race to a rival coordinator. Says
    /// nothing about availability; the same op is likely to commit when
    /// sent again.
    Contended,
    /// Refused: the key names no object this cluster hosts. Definite —
    /// sending it again cannot succeed.
    UnknownKey,
    /// Refused at admission: the object's pending-op queue is full. The
    /// op never reached the protocol; retry after backing off.
    Overloaded,
    /// Aborted: vote collection or catch-up timed out.
    TimedOut,
    /// Refused: the site is crashed (or crashed while coordinating the
    /// request).
    Down,
    /// Control acknowledged (crash/recover/set-reachable).
    Ok,
    /// Probe result.
    Probe {
        /// The durable `(VN, SC, DS)` triple.
        meta: CopyMeta,
        /// True if the file lock is held.
        locked: bool,
        /// True if a durable prepare record exists (in-doubt txn).
        in_doubt: bool,
        /// True if the site is crashed.
        down: bool,
    },
    /// Protocol-event tallies for the queried site, indexed by
    /// [`dynvote_protocol::EventKind`] declaration order.
    Events {
        /// One counter per event kind.
        counts: Vec<u64>,
    },
    /// The node's durable `(VN, SC, DS)` triple and committed log, in
    /// version order.
    Log {
        /// The durable metadata triple.
        meta: CopyMeta,
        /// Every committed entry, version-ordered and gapless.
        entries: Vec<LogEntry>,
    },
    /// Operational snapshot for `GET /status`. Protocol-state fields
    /// describe object 0 (the default object); `objects` says how many
    /// shards the node hosts in total.
    Status {
        /// Name of the vote-assignment algorithm the cluster runs.
        algorithm: String,
        /// Number of objects (shards) this node hosts.
        objects: u32,
        /// The durable `(VN, SC, DS)` triple of object 0.
        meta: CopyMeta,
        /// The node's current reachability set (partition view).
        reachable: SiteSet,
        /// True if the file lock is held right now.
        locked: bool,
        /// True if a durable prepare record exists (in-doubt txn).
        in_doubt: bool,
        /// True if the site is crashed.
        down: bool,
        /// Durable log length, summed over every object.
        log_len: u64,
        /// Updates committed here as coordinator (workload only;
        /// `Make_Current` restart commits are excluded).
        commits: u64,
        /// WAL epoch when running durable, `None` on a volatile node.
        wal_epoch: Option<u64>,
    },
    /// The site's network counters, in the order its host names them;
    /// empty from a host without a network.
    NetStats {
        /// One counter per name the host gives.
        counts: Vec<u64>,
    },
    /// Node counters in [`crate::ShardStats::names`] order, 13 slots:
    /// `[dispatched, queue_peak, merge_barriers, merge_wait_ns,
    /// pipeline_queue_peak, pipeline_batch(8)]`.
    ShardStats {
        /// Always 1: a node runs its kernels on one thread. Readers
        /// pass it to [`crate::ShardStats::names_for`].
        workers: u32,
        /// One counter per [`crate::ShardStats::names`] entry.
        counts: Vec<u64>,
    },
}

/// A client op in transit between two nodes (single-writer routing,
/// see DESIGN.md): the node a client talks to hands the op to the
/// object's home site and relays that site's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Relay {
    /// Origin to home: run this op as if a client of yours had sent it.
    Forward {
        /// The origin's handle for the op, echoed in the reply.
        id: u64,
        /// The object (shard) the op addresses.
        key: u32,
        /// `true` for a read-only request, `false` for an update.
        read: bool,
    },
    /// Home to origin: the outcome of forwarded op `id`.
    ForwardReply {
        /// The handle the `Forward` carried.
        id: u64,
        /// What the home site's round (or admission) answered.
        reply: ClientReply,
    },
}

/// One item of a peer link's stream: a protocol message or a relayed
/// client op.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerFrame {
    /// A protocol [`Message`].
    Msg(Message),
    /// A [`Relay`].
    Relay(Relay),
}
