//! # dynvote-node — one live site, for any host to drive
//!
//! A node is one site's [`ShardedSite`] — a protocol kernel per object
//! behind one router — with its queues, routing, deadlines and
//! write-ahead log. It turns the kernels' [`Action`]s into data: sends,
//! relays and client replies go to its [`Outbox`], `SetTimer` and
//! `ClearTimers` arm and disarm entries in its one deadline queue, and
//! `Resolved` answers the request that started the transaction. It
//! performs no output, reads no clock and names no socket or channel.
//!
//! Its host owns it and is the one thread that touches it. The host
//! drives five calls — [`Node::start`], [`Node::on_event`],
//! [`Node::end_batch`], [`Node::next_timer_in`] and [`Node::finish`] —
//! passing `now` into each; hands in peer frames, relays and client
//! requests as [`NodeEvent`]s, each request tagged with a [`ReplyTo`]
//! token of its own choosing; drains the outbox after `start`, every
//! `end_batch` and `finish`; and waits at most until the node's next
//! deadline (with none, until an event).
//!
//! The runtime is split into five files: `scheduler.rs` (the five
//! calls, the deadline queue and the fault model), `worker.rs` (the
//! kernel step and the per-object commit-pipelining FIFOs), `merge.rs`
//! (the barrier that seals a batch's persist effects into the node's
//! own [`NodeStore`] as one group-commit record behind one fsync, and
//! only then fills the outbox), `route.rs` (single-writer routing) and
//! `grace.rs` (per-peer vote latency and the straggler grace).
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

#![warn(missing_docs)]
#![warn(clippy::all)]

mod grace;
mod merge;
mod op;
mod route;
mod scheduler;
mod worker;

pub use op::{ClientOp, ClientReply, PeerFrame, Relay};
pub use worker::ShardStats;

use dynvote_core::{AlgorithmKind, BackoffPolicy, SiteId, SiteSet, TimerId, TimerWheel};
use dynvote_protocol::{Action, DurableState, EventKind, ObjectId, ShardedSite, TimerKind, TxnId};
use dynvote_storage::{NodeStore, RecoveryReport, StorageError, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on how many queued client updates one quorum round
/// seals (see [`Node::set_max_batch`]). Adaptive batching means this is
/// a cap, not a target: an idle object still commits a lone op
/// immediately.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Where a client's answer goes: a token the host chose when it handed
/// the request over, carried with the answer through the node's
/// [`Outbox`]. What the token stands for — a channel, a connection, an
/// HTTP exchange — is the host's to remember. Neither `Clone` nor
/// `Copy`, so each request's token comes back at most once.
#[derive(Debug, PartialEq, Eq)]
pub struct ReplyTo(pub u64);

/// What the node has produced since its host last drained it: peer
/// items in send order and client answers in answer order. Only the
/// node's sends, relays and replies fill it. Hosts drain it only after
/// a merge barrier has sealed the batch's WAL record, so nothing they
/// transmit announces state that is not durable. Reused across batches:
/// drain it, do not replace it.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Frames for other sites, each with the site it goes to.
    pub peers: Vec<(SiteId, PeerFrame)>,
    /// Answers: the request's token, its correlation id and the reply.
    pub replies: Vec<(ReplyTo, u64, ClientReply)>,
}

/// Everything a node handles.
#[derive(Debug)]
pub enum NodeEvent {
    /// One item of another site's peer link: a protocol message, a
    /// client op it relays, or its answer to one relayed from here.
    Peer {
        /// The sending site.
        from: SiteId,
        /// The item.
        frame: PeerFrame,
    },
    /// A client request with a correlation id and a reply token.
    Client {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The requested operation.
        op: ClientOp,
        /// The host's token for the answer.
        reply: ReplyTo,
    },
}

/// What one entry of the node's timer wheel stands for.
#[derive(Debug, Clone, Copy)]
enum Deadline {
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
pub struct NodeDurability {
    /// This site's data directory (each site owns its own).
    pub dir: PathBuf,
    /// WAL fsync discipline and rotation threshold.
    pub store: StoreConfig,
}

/// One data-plane client op on its way through the node: parked in an
/// object's FIFO, riding a quorum round, or waiting for another site's
/// answer. Answered exactly once, through [`Node::answer`].
#[derive(Debug)]
struct Client {
    /// The correlation id the answer carries (for a [`Route::From`] op,
    /// the origin's forward id).
    id: u64,
    /// The host's token for the answer; `None` for a [`Route::From`]
    /// op, whose answer is a relay frame.
    reply: Option<ReplyTo>,
    /// A read-only request; otherwise an update.
    read: bool,
    route: Route,
}

/// How far an op may still travel. An op crosses at most one link to be
/// coordinated and is never coordinated twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
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
/// surroundings, producing its output into an [`Outbox`]. A host owns
/// it and drives it through the five calls in the crate doc, from one
/// thread at a time.
///
/// Any crate can host a node. Three sites, their peer frames carried
/// at one instant, and one update whose answer comes back with the
/// host's token:
///
/// ```
/// use dynvote_core::{AlgorithmKind, SiteId};
/// use dynvote_node::{ClientOp, ClientReply, Node, NodeConfig, NodeEvent, ReplyTo};
///
/// let new = |i| Node::new(SiteId(i), 3, 1, AlgorithmKind::Hybrid, NodeConfig::default());
/// let mut sites = [new(0), new(1), new(2)];
/// let now = std::time::Instant::now();
/// sites.iter_mut().for_each(|site| site.start(now));
/// let op = ClientOp::Update { key: 0 };
/// sites[0].on_event(NodeEvent::Client { id: 7, op, reply: ReplyTo(42) }, now);
/// sites[0].end_batch(now);
/// while let Some(from) = sites.iter_mut().position(|s| !s.outbox().peers.is_empty()) {
///     let frames: Vec<_> = sites[from].outbox().peers.drain(..).collect();
///     for (to, frame) in frames {
///         let to = &mut sites[to.index()];
///         to.on_event(NodeEvent::Peer { from: SiteId(from as u8), frame }, now);
///         to.end_batch(now);
///     }
/// }
/// let answer = sites[0].outbox().replies.pop();
/// assert_eq!(answer, Some((ReplyTo(42), 7, ClientReply::Committed { version: 1 })));
/// for site in &mut sites {
///     assert_eq!(site.next_timer_in(now), None);
///     site.finish(now);
/// }
/// ```
pub struct Node {
    id: SiteId,
    n: usize,
    objects: usize,
    algorithm: AlgorithmKind,
    /// The site's kernels, one per object.
    site: ShardedSite,
    /// Actions the kernels staged since the last merge barrier, which
    /// drains them; reused, so the steady-state loop allocates no
    /// per-batch `Vec<Action>`.
    scratch: Vec<Action>,
    /// Per-object pending-op FIFOs: ops that arrived while the object's
    /// lock was held, drained up to `max_batch` at a time into one
    /// quorum round whenever the lock frees.
    queues: HashMap<ObjectId, VecDeque<worker::QueuedOp>>,
    /// Ops refused at the per-object queue bound since the last merge,
    /// which answers them `Overloaded`.
    overflows: Vec<Client>,
    /// `Some` when this node owns a data directory: every boot and
    /// every [`ClientOp::Recover`] reloads the kernels' durable state
    /// from disk instead of trusting process memory.
    durability: Option<NodeDurability>,
    /// The node's multi-object store: the merge barrier encodes every
    /// shard's persist effects into it, seals them as one group-commit
    /// record, and drives WAL rotation. `None` for amnesiac nodes.
    store: Option<NodeStore>,
    /// Sends, relays and replies for the host to transmit.
    out: Outbox,
    config: NodeConfig,
    down: bool,
    reachable: SiteSet,
    /// Peers whose reply a straggler grace or a vote deadline waited for
    /// in vain; emptied by a frame from any of them. Volatile (a crash
    /// wipes it) and shared by every object: handed to the kernels
    /// whenever it changes, so a round stops waiting for them once it
    /// is distinguished without them — one crash costs one coordinator
    /// about one grace, not one deadline per commit.
    suspected: SiteSet,
    /// How fast each peer has been voting, and the straggler grace
    /// that follows from it.
    vote_clock: grace::VoteClock,
    /// Round timers and forward deadlines, in the shared [`TimerWheel`]
    /// (the simulator arms the same wheel under a virtual clock).
    /// Cleared on every crash: the volatile state they guard is gone.
    timers: TimerWheel<Instant, Deadline>,
    /// Every round timer armed in `timers`, by what it guards. An entry
    /// leaves when its timer fires or the kernel's
    /// [`Action::ClearTimers`] names its transaction, which cancels it.
    round_timers: HashMap<(TxnId, TimerKind), TimerId>,
    /// This site's protocol-event tally, in [`EventKind::ALL`] order:
    /// the merge barrier counts every [`Action::Event`] it drains, and
    /// [`ClientOp::Events`] and `/metrics` read it. Owned by the node,
    /// so it survives a kernel swap from disk.
    event_counts: [u64; EventKind::COUNT],
    /// Print every drained event to stderr ([`Node::set_trace`]).
    trace: bool,
    /// Most queued client updates one quorum round may seal as
    /// consecutive log entries (commit pipelining); `1` disables
    /// multi-op rounds entirely.
    max_batch: usize,
    /// The node's observability counters, answering
    /// [`ClientOp::ShardStats`] and shared with the front door.
    shard_stats: Arc<ShardStats>,
    /// Clients parked on in-flight transactions. A pipelined round
    /// carries many client ops, so one transaction parks a payload-
    /// ordered list; every entry is resolved (exactly once) when the
    /// transaction resolves.
    pending: HashMap<TxnId, Vec<Client>>,
    /// Single-writer routing state (see `route.rs`).
    routes: route::Routes,
    restart_txns: HashSet<TxnId>,
    payload_seq: u64,
    commits: u64,
    rng: StdRng,
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

    /// Print every protocol event to stderr as `[site i] {event}` when
    /// the merge barrier drains it (events are counted either way).
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// What the node has produced for its host to transmit. Drain it
    /// after [`Node::start`], every [`Node::end_batch`] and
    /// [`Node::finish`].
    pub fn outbox(&mut self) -> &mut Outbox {
        &mut self.out
    }

    /// This site's protocol-event tally, one count per
    /// [`EventKind`] in declaration order.
    #[must_use]
    pub fn event_counts(&self) -> &[u64; EventKind::COUNT] {
        &self.event_counts
    }

    /// Give this node a data directory: open and recover its store
    /// and rebuild the kernels from the
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

    /// (Re)open the data directory and rebuild the kernels and the
    /// store from what it holds, discarding process memory. Boot, and
    /// the in-process stand-in for a machine reboot. Touches only this
    /// site's directory, so every site thread opens its own.
    fn reload_site_from_disk(&mut self) -> Result<RecoveryReport, StorageError> {
        let durability = self.durability.as_ref().expect("durability configured");
        let initial = DurableState::initial(self.n);
        let (store, states, report) =
            NodeStore::open(&durability.dir, durability.store, self.objects, initial)?;
        let algorithm = self.algorithm;
        let n = self.n;
        self.site = ShardedSite::restore(self.id, n, states, || algorithm.instantiate(n));
        self.store = Some(store);
        Ok(report)
    }
}
