//! The per-site node runtime: one thread driving a [`ShardedSite`] —
//! many independent per-object protocol kernels behind one router.
//!
//! A node owns the protocol kernels for its site and translates their
//! [`Action`]s into the outside world: sends go to the `Transport`,
//! `SetTimer` becomes an entry in a wall-clock timer heap, and
//! `Resolved` completes the client request that started the
//! transaction. Everything arrives as a [`NodeEvent`] — peer frames,
//! relays, client requests — handed to [`Node::on_event`] by whichever
//! thread hosts the node, and that thread is the only one that ever
//! touches it:
//!
//! * **channel transport** — [`Node::run`] blocks on the node's `mpsc`
//!   inbox;
//! * **TCP transport** — the site's reactor (`crate::reactor`) owns the
//!   node along with every fd of the site and calls it with each frame
//!   it decodes; only control, in-process clients and shutdown come
//!   through an inbox, whose sender rings the reactor's waker.
//!
//! Both hosts drive the same five calls — [`Node::start`],
//! [`Node::on_event`], [`Node::end_batch`], [`Node::next_timer_in`] and
//! [`Node::finish`] — so only the blocking wait differs.
//!
//! The runtime is split into five pieces, one file each:
//!
//! * **scheduler** (`node/scheduler.rs`) — the five calls above and the
//!   channel host. It hands each event to its object's shard, fires
//!   wall-clock timers, and paces the merge barrier.
//! * **worker** (`node/worker.rs`) — the kernel step: every event runs
//!   its shard into one scratch buffer, then the object's commit-
//!   pipelining FIFO is pumped.
//! * **merge** (`node/merge.rs`) — the barrier that seals the batch's
//!   staged WAL ops as **one** [`NodeStore`] group-commit record behind
//!   one fsync, and only then dispatches the staged sends and client
//!   replies through the transport's batch encoder. The force-write
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
//!   prepare/commit records survive), cancels pending wall-clock timers
//!   (they guard volatile transactions) and fails parked clients with
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

use crate::frontdoor::HttpTx;
use crate::reactor::ConnTx;
use crate::transport::{NetStats, Transport};
use crate::wire::{ClientOp, ClientReply, Relay};
use dynvote_core::{AlgorithmKind, BackoffPolicy, SiteId, SiteSet, TimerWheel};
use dynvote_protocol::{
    Action, CountingSink, DurableState, EventSink, FanoutSink, LogEntry, Message, ObjectId,
    RenderSink, ShardedSite, TimerKind, TxnId,
};
use dynvote_storage::{NodeStore, RecoveryReport, ShardHandle, StorageError, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on how many queued client updates one quorum round
/// seals (see [`crate::ClusterConfig::max_batch`]). Adaptive batching
/// means this is a cap, not a target: an idle object still commits a
/// lone op immediately.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Where a client reply should go.
#[derive(Debug, Clone)]
pub enum ReplySink {
    /// In-process client: replies land on an `mpsc` channel as
    /// `(correlation id, reply)` pairs.
    Channel(Sender<(u64, ClientReply)>),
    /// Remote binary client: the reply is framed and staged on its
    /// connection; the reactor (the node's own thread) writes it out
    /// after the batch.
    Conn(ConnTx),
    /// HTTP front-door client: the reply is rendered to an HTTP
    /// response, staged on the connection, and the admission slot is
    /// released (see [`crate::frontdoor`]).
    Http(HttpTx),
    /// Discard the reply (fire-and-forget control operations).
    Null,
}

impl ReplySink {
    /// Deliver a reply, best-effort — a vanished client is not an
    /// error.
    pub fn send(&self, id: u64, reply: ClientReply) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send((id, reply));
            }
            ReplySink::Conn(tx) => tx.send_reply(id, &reply),
            ReplySink::Http(tx) => tx.deliver(&reply),
            ReplySink::Null => {}
        }
    }
}

/// Everything that can be handed to a node.
#[derive(Debug)]
pub enum NodeEvent {
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

/// The cluster-wide omniscient commit ledger: every coordinator records
/// its commits here, and divergence (two different payloads claiming
/// the same version number of the same object) or version gaps are
/// flagged immediately. One independent chain per object — commits on
/// different shards never order against each other. This is the
/// live-cluster analogue of the simulator's ledger — a checking device,
/// not part of the protocol.
#[derive(Debug)]
pub struct ClusterLedger {
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Per-object payload chains; `chains[o][v - 1]` holds the payload
    /// committed at version `v` of object `o`.
    chains: Vec<Vec<u64>>,
    violations: Vec<String>,
}

impl ClusterLedger {
    /// A fresh, empty ledger tracking `objects` independent chains.
    #[must_use]
    pub fn new(objects: usize) -> Self {
        ClusterLedger {
            inner: Mutex::new(LedgerInner {
                chains: vec![Vec::new(); objects.max(1)],
                violations: Vec::new(),
            }),
        }
    }

    fn record(&self, site: SiteId, object: ObjectId, version: u64, payload: u64) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        let o = object.index();
        if o >= inner.chains.len() {
            inner
                .violations
                .push(format!("site {site} committed on unknown object {object}"));
            return;
        }
        let next = inner.chains[o].len() as u64 + 1;
        match version.cmp(&next) {
            Ordering::Equal => inner.chains[o].push(payload),
            Ordering::Less => {
                let existing = inner.chains[o][(version - 1) as usize];
                inner.violations.push(format!(
                    "site {site} re-committed {object} version {version} \
                     (payload {payload:#x}, chain has {existing:#x})"
                ));
            }
            Ordering::Greater => {
                inner.violations.push(format!(
                    "site {site} committed {object} version {version} but \
                     the chain only reaches {}",
                    next - 1
                ));
            }
        }
    }

    /// Number of versions committed cluster-wide, summed over every
    /// object's chain (including `Make_Current` restart commits).
    #[must_use]
    pub fn chain_len(&self) -> u64 {
        let inner = self.inner.lock().expect("ledger poisoned");
        inner.chains.iter().map(|c| c.len() as u64).sum()
    }

    /// Length of one object's chain (0 for an unknown object).
    #[must_use]
    pub fn chain_len_of(&self, object: ObjectId) -> u64 {
        let inner = self.inner.lock().expect("ledger poisoned");
        inner
            .chains
            .get(object.index())
            .map_or(0, |c| c.len() as u64)
    }

    /// All violations flagged so far (empty on a correct run).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("ledger poisoned")
            .violations
            .clone()
    }

    /// Seed one object's chain from a recovered site's durable log, so
    /// a durable cluster rebooted from disk audits against the history
    /// its disks already hold rather than flagging the first
    /// post-reboot commit as a gap. Entries extend the chain exactly
    /// where they continue it; anything already covered is left for
    /// [`Self::check_log`] and [`Self::record`] to cross-check. Priming
    /// with every site's logs in any order converges on the longest
    /// recovered prefix per object.
    pub fn prime(&self, object: ObjectId, log: &[LogEntry]) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        let o = object.index();
        if o >= inner.chains.len() {
            return;
        }
        for entry in log {
            if entry.version == inner.chains[o].len() as u64 + 1 {
                inner.chains[o].push(entry.payload);
            }
        }
    }

    /// True if `log` is a gapless prefix of `object`'s global chain and
    /// `meta_version` matches its length — the paper's invariant for
    /// every copy.
    #[must_use]
    pub fn check_log(&self, object: ObjectId, log: &[LogEntry], meta_version: u64) -> bool {
        let inner = self.inner.lock().expect("ledger poisoned");
        let Some(chain) = inner.chains.get(object.index()) else {
            return false;
        };
        meta_version == log.len() as u64
            && log
                .iter()
                .enumerate()
                .all(|(i, e)| e.version == (i + 1) as u64 && chain.get(i) == Some(&e.payload))
    }
}

/// The verdict of a cluster-wide audit (see [`crate::Cluster::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Workload updates committed, summed over all coordinators
    /// (`Make_Current` restart commits excluded).
    pub commits: u64,
    /// Length of the global version chain (restart commits included).
    pub chain_len: u64,
    /// True if every site's durable log is a gapless prefix of the
    /// chain and no ledger violation was flagged.
    pub consistent: bool,
    /// Human-readable ledger violations (empty on a correct run).
    pub violations: Vec<String>,
}

/// Where (and how) one node keeps its durable state on disk.
#[derive(Debug, Clone)]
pub struct NodeDurability {
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
/// surroundings, sending through a `T`. Consume with [`Node::run`] on a
/// dedicated thread.
pub struct Node<T: Transport> {
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
    /// The shared multi-object store behind every shard's persistence
    /// hook, kept so the merge barrier can issue the group-commit
    /// record and drive WAL rotation. `None` for amnesiac nodes.
    pub(crate) store: Option<Arc<Mutex<NodeStore>>>,
    /// The installed event sink, kept so a disk reboot can re-install
    /// it on the freshly restored kernel.
    pub(crate) sink: Option<Arc<dyn EventSink>>,
    pub(crate) transport: T,
    pub(crate) config: NodeConfig,
    pub(crate) ledger: Arc<ClusterLedger>,
    pub(crate) down: bool,
    pub(crate) reachable: SiteSet,
    /// Peers whose reply a straggler grace or a vote deadline waited for
    /// in vain; emptied by a frame from any of them. Volatile (a crash
    /// wipes it) and shared by every object: handed to the kernels
    /// whenever it changes, so a round stops waiting for them once it
    /// is distinguished without them — one crash costs one coordinator
    /// about one grace, not one deadline per commit.
    pub(crate) suspected: SiteSet,
    /// How fast each peer has been voting, the straggler grace that
    /// follows from it, and the timers guarding each recent round.
    pub(crate) vote_clock: grace::VoteClock,
    /// Wall-clock protocol deadlines, in the shared [`TimerWheel`] (the
    /// simulator arms the same wheel under a virtual clock). Its epoch
    /// is bumped on every crash so timers armed before the crash are
    /// recognizably stale (volatile state they guard is gone).
    pub(crate) timers: TimerWheel<Instant, (TxnId, TimerKind)>,
    /// The cluster-shared counting sink, kept to answer
    /// [`ClientOp::Events`] with this site's tally row.
    pub(crate) events: Option<Arc<CountingSink>>,
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
    /// The WAL staging buffer every shard's persistence hook encodes
    /// keyed ops into; the merge barrier drains it into the store — one
    /// record, one fsync.
    pub(crate) stage: Arc<Mutex<Vec<u8>>>,
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

impl<T: Transport> Node<T> {
    /// Build the runtime for site `id` of an `n`-site cluster hosting
    /// `objects` independent replicated objects under `algorithm`,
    /// sending through `transport`.
    #[must_use]
    pub fn new(
        id: SiteId,
        n: usize,
        objects: usize,
        algorithm: AlgorithmKind,
        config: NodeConfig,
        transport: T,
        ledger: Arc<ClusterLedger>,
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
            sink: None,
            transport,
            config,
            ledger,
            down: false,
            reachable: SiteSet::all(n),
            suspected: SiteSet::EMPTY,
            vote_clock: grace::VoteClock::new(n),
            timers: TimerWheel::new(),
            events: None,
            net: None,
            max_batch: DEFAULT_MAX_BATCH,
            shard_stats: Arc::new(ShardStats::new(n)),
            stage: Arc::default(),
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
    /// (clamped to at least 1). Call before [`Node::run`].
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.max_batch = max_batch.max(1);
    }

    /// Give this node a data directory: open and recover its store
    /// ([`NodeDurability::open`]) and rebuild the kernels from the
    /// per-object states recovery returned. Every shard's
    /// [`dynvote_protocol::Persistence`] hook is wired to the store, so
    /// every durable-write point (prepare records, commit records, log
    /// appends, metadata installs) reaches the WAL before the action
    /// that announced it leaves the node. Call before [`Node::run`], on
    /// the thread that will run the node.
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

    /// Swap in kernels restored from `states` and hook each shard's
    /// persistence up to `store` through a [`ShardHandle`] on the node's
    /// stage, drained at the merge barrier into a single checksummed
    /// record. The event sink, if any, is re-installed.
    fn install_store(&mut self, store: NodeStore, states: Vec<DurableState>) {
        let mut site = ShardedSite::restore(self.id, self.n, states, || {
            self.algorithm.instantiate(self.n)
        });
        if let Some(sink) = &self.sink {
            site.set_sink(Arc::clone(sink));
        }
        let core = Arc::new(Mutex::new(store));
        let stage = &self.stage;
        site.set_persistence(|object| {
            Box::new(ShardHandle::new(
                Arc::clone(stage),
                Arc::clone(&core),
                object,
            ))
        });
        self.site = site;
        self.store = Some(core);
    }

    /// True when this node reloads state from a data directory.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// One object's durable committed log (what recovery
    /// reconstructed, for a freshly booted durable node). Used to prime
    /// the cluster ledger's per-object chains before the first
    /// post-reboot commit. Empty for unhosted objects.
    #[must_use]
    pub fn recovered_log(&self, object: ObjectId) -> &[LogEntry] {
        self.site
            .shard(object)
            .map_or(&[], |shard| &shard.durable().log)
    }

    /// Install the cluster-shared event sink: every protocol event the
    /// kernel emits is counted per site (and, with `trace`, rendered to
    /// stderr as it happens). Must be called before [`Node::run`].
    pub fn set_event_sink(&mut self, counting: Arc<CountingSink>, trace: bool) {
        let sink: Arc<dyn EventSink> = if trace {
            Arc::new(FanoutSink::new(vec![
                counting.clone() as Arc<dyn EventSink>,
                Arc::new(RenderSink),
            ]))
        } else {
            counting.clone()
        };
        self.site.set_sink(Arc::clone(&sink));
        self.sink = Some(sink);
        self.events = Some(counting);
    }

    /// Share the node's reactor counters so [`ClientOp::NetStats`] can
    /// report them. Called by cluster boot under the TCP transport.
    pub fn set_net_stats(&mut self, stats: Arc<NetStats>) {
        self.net = Some(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accepts_the_chain_and_flags_divergence() {
        let ledger = ClusterLedger::new(1);
        let o = ObjectId::ZERO;
        ledger.record(SiteId(0), o, 1, 0x10);
        ledger.record(SiteId(1), o, 2, 0x20);
        assert_eq!(ledger.chain_len(), 2);
        assert!(ledger.violations().is_empty());

        ledger.record(SiteId(2), o, 2, 0x99); // divergent re-commit
        ledger.record(SiteId(3), o, 9, 0x30); // gap
        let violations = ledger.violations();
        assert_eq!(violations.len(), 2);
        assert!(violations[0].contains("version 2"));
        assert!(violations[1].contains("version 9"));
    }

    #[test]
    fn ledger_checks_logs_as_gapless_prefixes() {
        let ledger = ClusterLedger::new(1);
        let o = ObjectId::ZERO;
        ledger.record(SiteId(0), o, 1, 0x10);
        ledger.record(SiteId(0), o, 2, 0x20);
        let full = [
            LogEntry {
                version: 1,
                payload: 0x10,
            },
            LogEntry {
                version: 2,
                payload: 0x20,
            },
        ];
        assert!(ledger.check_log(o, &full, 2));
        assert!(ledger.check_log(o, &full[..1], 1)); // stale prefix is fine
        assert!(!ledger.check_log(o, &full, 1)); // meta out of step
        let diverged = [LogEntry {
            version: 1,
            payload: 0x99,
        }];
        assert!(!ledger.check_log(o, &diverged, 1));
    }

    #[test]
    fn ledger_chains_are_independent_per_object() {
        let ledger = ClusterLedger::new(3);
        // Version 1 of three different objects: three independent
        // chains, no gaps, no divergence.
        ledger.record(SiteId(0), ObjectId(0), 1, 0xA0);
        ledger.record(SiteId(1), ObjectId(1), 1, 0xB0);
        ledger.record(SiteId(2), ObjectId(2), 1, 0xC0);
        assert!(ledger.violations().is_empty());
        assert_eq!(ledger.chain_len(), 3);
        assert_eq!(ledger.chain_len_of(ObjectId(1)), 1);

        // Same payload at the same version of two objects is fine —
        // but a second version-1 commit on object 1 diverges.
        ledger.record(SiteId(0), ObjectId(1), 1, 0xB1);
        assert_eq!(ledger.violations().len(), 1);

        // A commit on an object the ledger does not track is flagged.
        ledger.record(SiteId(0), ObjectId(9), 1, 0xD0);
        assert_eq!(ledger.violations().len(), 2);

        // check_log keys by object: object 0's log does not validate
        // against object 1's chain.
        let log = [LogEntry {
            version: 1,
            payload: 0xA0,
        }];
        assert!(ledger.check_log(ObjectId(0), &log, 1));
        assert!(!ledger.check_log(ObjectId(1), &log, 1));
    }

    #[test]
    fn ledger_primes_per_object() {
        let ledger = ClusterLedger::new(2);
        let log0 = [
            LogEntry {
                version: 1,
                payload: 0x10,
            },
            LogEntry {
                version: 2,
                payload: 0x20,
            },
        ];
        let log1 = [LogEntry {
            version: 1,
            payload: 0x99,
        }];
        ledger.prime(ObjectId(0), &log0);
        ledger.prime(ObjectId(1), &log1);
        assert_eq!(ledger.chain_len_of(ObjectId(0)), 2);
        assert_eq!(ledger.chain_len_of(ObjectId(1)), 1);
        // Post-prime commits continue each chain where its log left off.
        ledger.record(SiteId(0), ObjectId(0), 3, 0x30);
        ledger.record(SiteId(1), ObjectId(1), 2, 0xAA);
        assert!(ledger.violations().is_empty());
    }
}
