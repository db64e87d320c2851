//! The per-site node runtime: one thread driving a [`ShardedSite`] —
//! many independent per-object protocol kernels behind one router.
//!
//! A node owns the protocol kernels for its site and translates their
//! [`Action`]s into data: sends, relays and client replies are appended
//! to the node's [`Outbox`], `SetTimer` becomes an entry in the node's
//! one deadline queue and `ClearTimers` takes its transaction's entries
//! out again, and `Resolved` answers the client request that started
//! the transaction. Everything arrives as a [`NodeEvent`] —
//! peer frames, relays, client requests — handed to
//! [`Node::on_event`] by whichever thread hosts the node, and that
//! thread is the only one that ever touches it. The node performs no
//! output of its own and reads no clock: its host passes `now` into
//! every call and transmits what the outbox holds:
//!
//! * **channel transport** — [`Node::run`] blocks on the node's `mpsc`
//!   inbox and hands each peer item to that peer's inbox;
//! * **TCP transport** — the site's reactor (`crate::reactor`) owns the
//!   node along with every fd of the site, calls it with each frame it
//!   decodes, and writes the outbox to the sockets; only control,
//!   in-process clients and shutdown come through an inbox, whose
//!   sender rings the reactor's waker.
//!
//! Both hosts drive the same five calls — [`Node::start`],
//! [`Node::on_event`], [`Node::end_batch`], [`Node::next_timer_in`] and
//! [`Node::finish`] — and drain the outbox after `start`, every
//! `end_batch` and `finish`. Both wait exactly until the node's next
//! deadline (with none, until an event), so only the blocking wait and
//! the transmission differ.
//!
//! The runtime is split into five pieces, one file each:
//!
//! * **scheduler** (`node/scheduler.rs`) — the five calls above. It
//!   hands each event to its object's shard, fires due deadlines, and
//!   paces the merge barrier.
//! * **worker** (`node/worker.rs`) — the kernel step: every event runs
//!   its shard into one scratch buffer, then the object's commit-
//!   pipelining FIFO is pumped.
//! * **merge** (`node/merge.rs`) — the barrier that encodes the batch's
//!   persist effects into the node's own [`NodeStore`] and seals them as
//!   **one** group-commit record behind one fsync, and only then
//!   appends the staged sends and client replies to the outbox, which
//!   the host drains after the batch. The force-write
//!   discipline is intact — nothing announced is ever lost — but the
//!   fsync is amortized across every object the batch touched.
//! * **route** (`node/route.rs`) — single-writer routing: the volatile
//!   per-object home hints learned from lost lock races, and the table
//!   of client ops handed to another site and not yet answered.
//! * **grace** (`node/grace.rs`) — per-peer vote latency and the
//!   straggler grace scaled to it: how long a round that already holds
//!   a distinguished set of votes waits for the rest before the node
//!   suspects them.
//!
//! Transactions on different objects never contend: each shard has its
//! own lock, commit chain, and prepare record.
//!
//! Fault injection mirrors the simulator's model exactly:
//!
//! * **crash** wipes the kernels' volatile state (durable
//!   prepare/commit records survive), clears pending deadlines (they
//!   guard volatile rounds and forwards) and fails parked clients with
//!   [`ClientReply::Down`]. The thread stays up so control traffic
//!   keeps working.
//! * **recover** runs the Section V-C restart protocol
//!   (`Make_Current`); its transactions are tagged so a resulting
//!   commit is booked as restart traffic, not workload.
//! * **partitions** are emulated at the node boundary by a
//!   [`SiteSet`] of reachable sites, filtering both inbound and
//!   outbound messages — transport-agnostic, and equivalent to the
//!   simulator's link topology once in-flight traffic has drained.

mod grace;
mod merge;
mod route;
mod scheduler;
mod worker;

pub use worker::ShardStats;

use crate::transport::NetStats;
use crate::wire::{ClientOp, ClientReply, PeerFrame, Relay};
use dynvote_core::{AlgorithmKind, BackoffPolicy, SiteId, SiteSet, TimerId, TimerWheel};
use dynvote_protocol::{
    Action, DurableState, EventKind, Message, ObjectId, ShardedSite, TimerKind, TxnId,
};
use dynvote_storage::{NodeStore, RecoveryReport, StorageError, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on how many queued client updates one quorum round
/// seals (see [`crate::ClusterConfig::max_batch`]). Adaptive batching
/// means this is a cap, not a target: an idle object still commits a
/// lone op immediately.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Where a client reply should go: plain data, carried with the reply
/// through the node's [`Outbox`] to the host that delivers it. Not
/// `Clone`, so each op's sink is delivered at most once.
#[derive(Debug)]
pub(crate) enum ReplySink {
    /// In-process client: the host sends `(correlation id, reply)` on
    /// the channel.
    Channel(Sender<(u64, ClientReply)>),
    /// Remote binary client on the reactor's connection `slot`, if the
    /// slot still holds connection `serial`.
    Conn { slot: usize, serial: u64 },
    /// HTTP front-door op on the reactor's connection `slot`, if the
    /// slot still holds connection `serial` (see [`crate::frontdoor`]).
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
    /// Discard the reply: a [`Route::From`] op, answered with a relay.
    Null,
}

/// What the node has produced since its host last drained it: peer
/// items in send order and client replies in answer order. Only
/// [`Node::send`], [`Node::relay`] and [`Node::reply`] fill it. Hosts
/// drain it only after a merge barrier has sealed the batch's WAL
/// record, so nothing they transmit announces state that is not
/// durable. Reused across batches, like [`Node::scratch`].
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) peers: Vec<(SiteId, PeerFrame)>,
    pub(crate) replies: Vec<(ReplySink, u64, ClientReply)>,
}

/// Everything that can be handed to a node.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// A protocol message from another site.
    Peer {
        /// The sending site.
        from: SiteId,
        /// The message.
        msg: Message,
    },
    /// A client request with a correlation id and a reply path.
    Client {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The requested operation.
        op: ClientOp,
        /// Where the reply goes.
        reply: ReplySink,
    },
    /// A client op relayed by another site, or that site's answer to
    /// one relayed from here.
    Relay {
        /// The sending site.
        from: SiteId,
        /// The relayed op or answer.
        relay: Relay,
    },
    /// Stop the node's thread (parked clients are failed with `Down`).
    /// Handled by the host, not by [`Node::on_event`].
    Shutdown,
}

/// What one entry of the node's timer wheel stands for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Deadline {
    /// A protocol timer of one of this site's rounds.
    Round(TxnId, TimerKind),
    /// The forward with this id has gone unanswered too long.
    Forward(u64),
}

/// Wall-clock protocol deadlines for one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Coordinator: how slow a live peer may be — how long to wait for
    /// votes before deciding with whatever arrived. Waited out in full
    /// only by a round the answering sites cannot make distinguished:
    /// it is the one road to `Rejected`/`Contended`. A round whose
    /// replies *are* distinguished gives the silent peers a straggler
    /// grace instead — as long as this node's peers have lately needed
    /// (largest smoothed vote latency plus four mean deviations), never
    /// less than an eighth of this value nor more than all of it —
    /// then closes without them and suspects them, after which rounds
    /// close on the last unsuspected reply. A harness that must never
    /// leave out a live but descheduled peer lengthens this value; the
    /// grace floor follows. With all peers answering the coordinator
    /// decides on the last reply.
    pub vote_deadline: Duration,
    /// Coordinator: how long to wait for a catch-up reply before
    /// aborting.
    pub catchup_deadline: Duration,
    /// Prepared-subordinate retry schedule, in **milliseconds** (shared
    /// with the simulator via [`BackoffPolicy`]).
    pub backoff: BackoffPolicy,
    /// Seed for the jitter RNG (combined with the site id, so nodes
    /// jitter independently).
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            vote_deadline: Duration::from_millis(25),
            catchup_deadline: Duration::from_millis(50),
            backoff: BackoffPolicy::new(5.0, 80.0).with_jitter(0.1),
            seed: 0x00D1_5C0D,
        }
    }
}

/// Where (and how) one node keeps its durable state on disk.
#[derive(Debug, Clone)]
pub(crate) struct NodeDurability {
    /// This site's data directory (each site owns its own).
    pub dir: PathBuf,
    /// WAL fsync discipline and rotation threshold.
    pub store: StoreConfig,
}

impl NodeDurability {
    /// Open and recover the store of a site of an `n`-site cluster
    /// hosting `objects` objects: the store, every object's recovered
    /// state, and what recovery found. Touches only this site's
    /// directory, so every site thread opens its own at boot.
    pub fn open(
        &self,
        n: usize,
        objects: usize,
    ) -> Result<(NodeStore, Vec<DurableState>, RecoveryReport), StorageError> {
        NodeStore::open(&self.dir, self.store, objects, DurableState::initial(n))
    }
}

/// One data-plane client op on its way through the node: parked in an
/// object's FIFO, riding a quorum round, or waiting for another site's
/// answer. Answered exactly once, through [`Node::answer`].
#[derive(Debug)]
pub(crate) struct Client {
    /// The correlation id the answer carries (for a [`Route::From`] op,
    /// the origin's forward id).
    pub(crate) id: u64,
    /// Where the answer goes ([`ReplySink::Null`] for a [`Route::From`]
    /// op: its answer is a relay frame).
    pub(crate) reply: ReplySink,
    /// A read-only request; otherwise an update.
    pub(crate) read: bool,
    pub(crate) route: Route,
}

/// How far an op may still travel. An op crosses at most one link to be
/// coordinated and is never coordinated twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// This node's client: may be handed to its object's home site.
    Free,
    /// This node's client, back from a home site that refused it: runs
    /// here, whatever the route table says.
    Spent,
    /// Handed over by this origin: runs here and is answered with a
    /// [`Relay::ForwardReply`].
    From(SiteId),
}

/// A live protocol site: the sharded kernels plus their wall-clock
/// surroundings, producing its output into an [`Outbox`]. Consume with
/// [`Node::run`] on a dedicated thread, or host it in a reactor.
pub(crate) struct Node {
    pub(crate) id: SiteId,
    pub(crate) n: usize,
    pub(crate) objects: usize,
    pub(crate) algorithm: AlgorithmKind,
    /// The site's kernels, one per object.
    pub(crate) site: ShardedSite,
    /// Actions the kernels staged since the last merge barrier, which
    /// drains them; reused, so the steady-state loop allocates no
    /// per-batch `Vec<Action>`.
    pub(crate) scratch: Vec<Action>,
    /// Per-object pending-op FIFOs: ops that arrived while the object's
    /// lock was held, drained up to `max_batch` at a time into one
    /// quorum round whenever the lock frees.
    pub(crate) queues: HashMap<ObjectId, VecDeque<worker::QueuedOp>>,
    /// Ops refused at the per-object queue bound since the last merge,
    /// which answers them `Overloaded`.
    pub(crate) overflows: Vec<Client>,
    /// `Some` when this node owns a data directory: every boot and
    /// every [`ClientOp::Recover`] reloads the kernels' durable state
    /// from disk instead of trusting process memory.
    pub(crate) durability: Option<NodeDurability>,
    /// The node's multi-object store: the merge barrier encodes every
    /// shard's persist effects into it, seals them as one group-commit
    /// record, and drives WAL rotation. `None` for amnesiac nodes.
    pub(crate) store: Option<NodeStore>,
    /// Sends, relays and replies for the host to transmit.
    pub(crate) out: Outbox,
    pub(crate) config: NodeConfig,
    pub(crate) down: bool,
    pub(crate) reachable: SiteSet,
    /// Peers whose reply a straggler grace or a vote deadline waited for
    /// in vain; emptied by a frame from any of them. Volatile (a crash
    /// wipes it) and shared by every object: handed to the kernels
    /// whenever it changes, so a round stops waiting for them once it
    /// is distinguished without them — one crash costs one coordinator
    /// about one grace, not one deadline per commit.
    pub(crate) suspected: SiteSet,
    /// How fast each peer has been voting, and the straggler grace
    /// that follows from it.
    pub(crate) vote_clock: grace::VoteClock,
    /// Round timers and forward deadlines, in the shared [`TimerWheel`]
    /// (the simulator arms the same wheel under a virtual clock).
    /// Cleared on every crash: the volatile state they guard is gone.
    pub(crate) timers: TimerWheel<Instant, Deadline>,
    /// Every round timer armed in `timers`, by what it guards. An entry
    /// leaves when its timer fires or the kernel's
    /// [`Action::ClearTimers`] names its transaction, which cancels it.
    pub(crate) round_timers: HashMap<(TxnId, TimerKind), TimerId>,
    /// This site's protocol-event tally, in [`EventKind::ALL`] order:
    /// the merge barrier counts every [`Action::Event`] it drains, and
    /// [`ClientOp::Events`] and `/metrics` read it. Owned by the node,
    /// so it survives a kernel swap from disk.
    pub(crate) event_counts: [u64; EventKind::COUNT],
    /// Print every drained event to stderr
    /// ([`crate::ClusterConfig::trace`]).
    pub(crate) trace: bool,
    /// This node's reactor counters, kept to answer
    /// [`ClientOp::NetStats`]. `None` under the channel transport.
    pub(crate) net: Option<Arc<NetStats>>,
    /// Most queued client updates one quorum round may seal as
    /// consecutive log entries (commit pipelining); `1` disables
    /// multi-op rounds entirely.
    pub(crate) max_batch: usize,
    /// The node's observability counters, answering
    /// [`ClientOp::ShardStats`] and shared with the front door.
    pub(crate) shard_stats: Arc<ShardStats>,
    /// Clients parked on in-flight transactions. A pipelined round
    /// carries many client ops, so one transaction parks a payload-
    /// ordered list; every entry is resolved (exactly once) when the
    /// transaction resolves.
    pub(crate) pending: HashMap<TxnId, Vec<Client>>,
    /// Single-writer routing state (see `node/route.rs`).
    pub(crate) routes: route::Routes,
    pub(crate) restart_txns: HashSet<TxnId>,
    pub(crate) payload_seq: u64,
    pub(crate) commits: u64,
    pub(crate) rng: StdRng,
}

impl Node {
    /// Build the runtime for site `id` of an `n`-site cluster hosting
    /// `objects` independent replicated objects under `algorithm`.
    #[must_use]
    pub fn new(
        id: SiteId,
        n: usize,
        objects: usize,
        algorithm: AlgorithmKind,
        config: NodeConfig,
    ) -> Self {
        let site = ShardedSite::new(id, n, objects, || algorithm.instantiate(n));
        let rng = StdRng::seed_from_u64(config.seed ^ (0x9E37 + u64::from(id.0)));
        Node {
            id,
            n,
            objects,
            algorithm,
            site,
            scratch: Vec::new(),
            queues: HashMap::new(),
            overflows: Vec::new(),
            durability: None,
            store: None,
            out: Outbox::default(),
            config,
            down: false,
            reachable: SiteSet::all(n),
            suspected: SiteSet::EMPTY,
            vote_clock: grace::VoteClock::new(n),
            timers: TimerWheel::new(),
            round_timers: HashMap::new(),
            event_counts: [0; EventKind::COUNT],
            trace: false,
            net: None,
            max_batch: DEFAULT_MAX_BATCH,
            shard_stats: Arc::new(ShardStats::new(n)),
            pending: HashMap::new(),
            routes: route::Routes::default(),
            restart_txns: HashSet::new(),
            payload_seq: 0,
            commits: 0,
            rng,
        }
    }

    /// The node's observability counters (shared with the front
    /// door for `/metrics`).
    #[must_use]
    pub fn shard_stats(&self) -> Arc<ShardStats> {
        Arc::clone(&self.shard_stats)
    }

    /// Cap how many queued client updates one quorum round may seal
    /// (clamped to at least 1). Call before the node is hosted.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.max_batch = max_batch.max(1);
    }

    /// Give this node a data directory: open and recover its store
    /// ([`NodeDurability::open`]) and rebuild the kernels from the
    /// per-object states recovery returned. From then on every
    /// durable-write point (prepare records, commit records, log
    /// appends, metadata installs) reaches the WAL before the action
    /// that announced it leaves the node: the merge barrier seals the
    /// batch's [`Action::Persist`] effects first. Call before the node
    /// is hosted, on the thread that will host it.
    pub fn enable_durability(
        &mut self,
        durability: NodeDurability,
    ) -> Result<RecoveryReport, StorageError> {
        self.durability = Some(durability);
        self.reload_site_from_disk()
    }

    /// (Re)open the data directory and rebuild the kernels from what it
    /// holds, discarding process memory. Boot, and the in-process
    /// stand-in for a machine reboot.
    pub(crate) fn reload_site_from_disk(&mut self) -> Result<RecoveryReport, StorageError> {
        let durability = self.durability.as_ref().expect("durability configured");
        let (store, states, report) = durability.open(self.n, self.objects)?;
        self.install_store(store, states);
        Ok(report)
    }

    /// Swap in kernels restored from `states` and the `store` their
    /// effects are sealed into.
    fn install_store(&mut self, store: NodeStore, states: Vec<DurableState>) {
        self.site = ShardedSite::restore(self.id, self.n, states, || {
            self.algorithm.instantiate(self.n)
        });
        self.store = Some(store);
    }

    /// Share the node's reactor counters so [`ClientOp::NetStats`] can
    /// report them. Called by cluster boot under the TCP transport.
    pub fn set_net_stats(&mut self, stats: Arc<NetStats>) {
        self.net = Some(stats);
    }
}
