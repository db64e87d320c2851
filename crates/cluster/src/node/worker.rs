//! The shard-affine worker pool: N workers, each exclusively owning the
//! objects with `object % N == worker`, plus the counters that make the
//! pool observable.
//!
//! Ownership is the synchronization: an object's `SiteActor` lives
//! inside exactly one worker's [`WorkerGroup`], so every kernel stays
//! single-threaded and lock-free exactly as in the one-thread runtime.
//! The scheduler classifies each inbox event by `ObjectId`
//! ([`WorkItem::object`]) and enqueues it on the owning worker; workers
//! drain their queues and run the kernels into their own scratch
//! `ActionSink`s; the merge barrier (`node/merge.rs`) waits for every
//! queue to drain, locks every group, and combines the staged results
//! behind one WAL record and one transport flush.
//!
//! With one worker the pool spawns no threads at all: [`ShardPool::dispatch`]
//! runs the kernel inline under an uncontended mutex, so the default
//! configuration keeps the original single-threaded runtime's costs.

use crate::node::Client;
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{Action, Message, ObjectId, ShardedSite, TimerKind, TxnId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Worker-pool counters in the style of [`crate::NetStats`]: relaxed
/// atomics bumped on the hot path, snapshotted wholesale for loadgen
/// reports and the front door's `/metrics`.
#[derive(Debug)]
pub struct ShardStats {
    /// Work items handed to each worker since launch.
    dispatched: Vec<AtomicU64>,
    /// High-water mark of each worker's queue depth (always 0 with one
    /// worker: dispatch runs inline, nothing ever queues).
    queue_peak: Vec<AtomicU64>,
    /// Merge barriers executed.
    merge_barriers: AtomicU64,
    /// Total nanoseconds the scheduler spent in `wait_idle` blocking on
    /// workers at merge barriers.
    merge_wait_ns: AtomicU64,
    /// High-water mark of any single object's pending-op queue inside
    /// each worker (the commit-pipelining FIFO, not the work-item
    /// queue above).
    pipeline_queue_peak: Vec<AtomicU64>,
    /// Histogram of quorum-round batch sizes: how many client updates
    /// each `start_update_batch` round sealed, bucketed by
    /// [`Self::BATCH_BUCKETS`].
    batch_sizes: Vec<AtomicU64>,
    /// The node's peer-suspicion set, as [`SiteSet::bits`] (a gauge).
    suspected: AtomicU64,
    /// Per peer: vote deadlines that fired without its reply.
    vote_deadline_missed: Vec<AtomicU64>,
    /// Per peer: straggler graces that ran out without its reply and
    /// closed the round (its replies were distinguished without it).
    vote_grace_missed: Vec<AtomicU64>,
    /// Per peer: smoothed vote latency in microseconds (a gauge; 0
    /// until the peer has voted in a round coordinated here).
    peer_vote_rtt_us: Vec<AtomicU64>,
    /// The straggler grace the latest round was given, in microseconds
    /// (a gauge).
    vote_grace_us: AtomicU64,
    /// Quorum rounds that closed before their vote deadline because
    /// only suspected peers were still silent.
    rounds_closed_early: AtomicU64,
    /// Client ops this node handed to an object's home site.
    forwarded_out: AtomicU64,
    /// Client ops other sites handed to this node.
    forwarded_in: AtomicU64,
    /// Forwarded ops whose answer never came back in time.
    forward_timeouts: AtomicU64,
    /// Rounds coordinated here that lost a lock race.
    contended: AtomicU64,
    /// Objects with a home hint right now (a gauge).
    routed_objects: AtomicU64,
}

impl ShardStats {
    /// Upper bounds of the batch-size histogram buckets (the last
    /// bucket is open-ended: every batch larger than 64 ops).
    pub const BATCH_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, u64::MAX];

    /// Fresh counters for a pool of `workers` on one node of a
    /// `sites`-site cluster.
    #[must_use]
    pub fn new(workers: usize, sites: usize) -> Self {
        ShardStats {
            dispatched: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            queue_peak: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            merge_barriers: AtomicU64::new(0),
            merge_wait_ns: AtomicU64::new(0),
            pipeline_queue_peak: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            batch_sizes: Self::BATCH_BUCKETS
                .iter()
                .map(|_| AtomicU64::new(0))
                .collect(),
            suspected: AtomicU64::new(0),
            vote_deadline_missed: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            vote_grace_missed: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            peer_vote_rtt_us: (0..sites).map(|_| AtomicU64::new(0)).collect(),
            vote_grace_us: AtomicU64::new(0),
            rounds_closed_early: AtomicU64::new(0),
            forwarded_out: AtomicU64::new(0),
            forwarded_in: AtomicU64::new(0),
            forward_timeouts: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            routed_objects: AtomicU64::new(0),
        }
    }

    /// The pool size these counters describe.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.dispatched.len()
    }

    fn note_dispatch(&self, worker: usize) {
        self.dispatched[worker].fetch_add(1, Ordering::Relaxed);
    }

    fn note_queue_depth(&self, worker: usize, depth: u64) {
        self.queue_peak[worker].fetch_max(depth, Ordering::Relaxed);
    }

    fn note_merge(&self, wait_ns: u64) {
        self.merge_barriers.fetch_add(1, Ordering::Relaxed);
        self.merge_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }

    fn note_pipeline_depth(&self, worker: usize, depth: u64) {
        self.pipeline_queue_peak[worker].fetch_max(depth, Ordering::Relaxed);
    }

    fn note_batch(&self, ops: u64) {
        let bucket = Self::BATCH_BUCKETS
            .iter()
            .position(|&hi| ops <= hi)
            .unwrap_or(Self::BATCH_BUCKETS.len() - 1);
        self.batch_sizes[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_suspected(&self, suspected: SiteSet) {
        self.suspected.store(suspected.bits(), Ordering::Relaxed);
    }

    /// A round closed without `peer`'s vote: at its straggler grace, or
    /// else at its vote deadline.
    pub(crate) fn note_vote_missed(&self, peer: SiteId, at_grace: bool) {
        let counts = if at_grace {
            &self.vote_grace_missed
        } else {
            &self.vote_deadline_missed
        };
        if let Some(count) = counts.get(peer.index()) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_vote_rtt(&self, peer: SiteId, srtt: Duration) {
        if let Some(gauge) = self.peer_vote_rtt_us.get(peer.index()) {
            gauge.store(srtt.as_micros() as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_vote_grace(&self, grace: Duration) {
        self.vote_grace_us
            .store(grace.as_micros() as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_closed_early(&self) {
        self.rounds_closed_early.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_forwarded_out(&self) {
        self.forwarded_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_forwarded_in(&self) {
        self.forwarded_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_forward_timeout(&self) {
        self.forward_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_contended(&self) {
        self.contended.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_routed(&self, objects: usize) {
        self.routed_objects.store(objects as u64, Ordering::Relaxed);
    }

    /// The peers this node currently suspects of being silent. The
    /// peer-health and routing readings (this one down to
    /// [`Self::routed_objects`]) are served on `/metrics` and `/status`
    /// only: [`Self::snapshot`] keeps its layout, because wire readers
    /// locate the batch histogram from its tail.
    #[must_use]
    pub fn suspected(&self) -> SiteSet {
        SiteSet::from_bits(self.suspected.load(Ordering::Relaxed))
    }

    /// Per peer (indexed by site), how many vote deadlines fired
    /// without its reply.
    #[must_use]
    pub fn vote_deadline_missed(&self) -> Vec<u64> {
        load_all(&self.vote_deadline_missed)
    }

    /// Per peer (indexed by site), how many rounds closed at their
    /// straggler grace without its reply.
    #[must_use]
    pub fn vote_grace_missed(&self) -> Vec<u64> {
        load_all(&self.vote_grace_missed)
    }

    /// Per peer (indexed by site), the smoothed latency of its votes in
    /// microseconds; 0 for a peer that has not voted here yet.
    #[must_use]
    pub fn peer_vote_rtt_us(&self) -> Vec<u64> {
        load_all(&self.peer_vote_rtt_us)
    }

    /// The straggler grace of the latest round coordinated here, in
    /// microseconds.
    #[must_use]
    pub fn vote_grace_us(&self) -> u64 {
        self.vote_grace_us.load(Ordering::Relaxed)
    }

    /// Quorum rounds closed ahead of their vote deadline.
    #[must_use]
    pub fn rounds_closed_early(&self) -> u64 {
        self.rounds_closed_early.load(Ordering::Relaxed)
    }

    /// Client ops this node handed to an object's home site.
    #[must_use]
    pub fn forwarded_out(&self) -> u64 {
        self.forwarded_out.load(Ordering::Relaxed)
    }

    /// Client ops other sites handed to this node to coordinate.
    #[must_use]
    pub fn forwarded_in(&self) -> u64 {
        self.forwarded_in.load(Ordering::Relaxed)
    }

    /// Forwarded ops answered `TimedOut` because the home never did.
    #[must_use]
    pub fn forward_timeouts(&self) -> u64 {
        self.forward_timeouts.load(Ordering::Relaxed)
    }

    /// Rounds coordinated here that lost a lock race.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Objects whose ops this node currently routes to another site.
    #[must_use]
    pub fn routed_objects(&self) -> u64 {
        self.routed_objects.load(Ordering::Relaxed)
    }

    /// The five routing readings by name, for `/metrics` and `/status`
    /// (`routed_objects` is a gauge, the rest are running totals).
    #[must_use]
    pub fn routing(&self) -> [(&'static str, u64); 5] {
        [
            ("contended", self.contended()),
            ("routed_objects", self.routed_objects()),
            ("forwarded_out", self.forwarded_out()),
            ("forwarded_in", self.forwarded_in()),
            ("forward_timeouts", self.forward_timeouts()),
        ]
    }

    /// One row of counters, in [`Self::names`] order:
    /// `[dispatched(0..W), queue_peak(0..W), merge_barriers,
    /// merge_wait_ns, pipeline_queue_peak(0..W), batch_sizes(8)]` —
    /// the pipelining counters are appended after the pre-pipelining
    /// layout so old readers' indices stay valid.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        let mut counts = Vec::with_capacity(3 * self.workers() + 2 + self.batch_sizes.len());
        counts.extend(self.dispatched.iter().map(|c| c.load(Ordering::Relaxed)));
        counts.extend(self.queue_peak.iter().map(|c| c.load(Ordering::Relaxed)));
        counts.push(self.merge_barriers.load(Ordering::Relaxed));
        counts.push(self.merge_wait_ns.load(Ordering::Relaxed));
        counts.extend(
            self.pipeline_queue_peak
                .iter()
                .map(|c| c.load(Ordering::Relaxed)),
        );
        counts.extend(self.batch_sizes.iter().map(|c| c.load(Ordering::Relaxed)));
        counts
    }

    /// Counter names matching [`Self::snapshot`] positions, for JSON
    /// reports.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        Self::names_for(self.workers())
    }

    /// [`Self::names`] for a pool of `workers` threads, without an
    /// instance — wire clients only learn the worker count from the
    /// `ShardStats` reply and must reconstruct the layout themselves.
    #[must_use]
    pub fn names_for(workers: usize) -> Vec<String> {
        let mut names = Vec::with_capacity(3 * workers + 2 + Self::BATCH_BUCKETS.len());
        for w in 0..workers {
            names.push(format!("shard_worker{w}_dispatched"));
        }
        for w in 0..workers {
            names.push(format!("shard_worker{w}_queue_peak"));
        }
        names.push("shard_merge_barriers".to_string());
        names.push("shard_merge_wait_ns".to_string());
        for w in 0..workers {
            names.push(format!("pipeline_queue_peak_w{w}"));
        }
        for &hi in &Self::BATCH_BUCKETS {
            if hi == u64::MAX {
                names.push("pipeline_batch_gt64".to_string());
            } else {
                names.push(format!("pipeline_batch_le{hi}"));
            }
        }
        names
    }
}

fn load_all(counters: &[AtomicU64]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// One unit of shard work, classified by the scheduler thread and run
/// by the worker owning [`WorkItem::object`] (every worker, for the one
/// item that names no object).
#[derive(Debug)]
pub(crate) enum WorkItem {
    /// A protocol message from another site (keyed by its transaction's
    /// object).
    Peer {
        /// The sending site.
        from: SiteId,
        /// The message.
        msg: Message,
    },
    /// Start a client update or read-only request; the started
    /// transaction is recorded in [`WorkerGroup::starts`] so the merge
    /// can park the client on it.
    Op {
        /// The object addressed.
        object: ObjectId,
        /// An update's cluster-unique payload, assigned by the
        /// scheduler (unused for a read).
        payload: u64,
        /// Who asked, and whether it is a read.
        client: Client,
    },
    /// A due wall-clock protocol timer.
    Timer {
        /// The transaction the timer guards.
        txn: TxnId,
        /// Which deadline fired.
        kind: TimerKind,
    },
    /// Run the Section V-C restart protocol (`Make_Current`) on one
    /// object; a started restart transaction lands in
    /// [`WorkerGroup::restarts`] so its commit is booked as restart
    /// traffic, not workload.
    Recover {
        /// The object to recover.
        object: ObjectId,
        /// The restart transaction's payload.
        payload: u64,
    },
    /// The node's peer-suspicion set changed
    /// ([`ShardPool::set_suspected`]): the one way a worker learns it.
    Suspected(SiteSet),
    /// The set grew while this round may be collecting votes: re-test
    /// it now, it may never see another vote.
    SuspicionGrew {
        /// A round coordinated here.
        txn: TxnId,
    },
}

impl WorkItem {
    /// The object this item addresses — what decides the owning worker
    /// — or `None` for the one item every worker gets a copy of.
    fn object(&self) -> Option<ObjectId> {
        match self {
            WorkItem::Peer { msg, .. } => Some(msg.txn().object),
            WorkItem::Timer { txn, .. } | WorkItem::SuspicionGrew { txn } => Some(txn.object),
            WorkItem::Op { object, .. } | WorkItem::Recover { object, .. } => Some(*object),
            WorkItem::Suspected(_) => None,
        }
    }
}

/// One client op parked in an object's commit-pipelining FIFO, waiting
/// for the object's lock to free. A read is never batched with updates
/// — it runs its own round — but it keeps its FIFO position.
#[derive(Debug)]
struct QueuedOp {
    /// An update's scheduler-assigned payload.
    payload: u64,
    client: Client,
}

/// Bound on one object's pending-op queue. An op arriving beyond it is
/// refused with the typed `Overloaded` reply instead of queueing
/// without bound — the front door surfaces that as `429 Retry-After`.
pub(crate) const PER_OBJECT_QUEUE_LIMIT: usize = 1024;

/// The client ops riding one started round, in payload order.
pub(crate) type RoundClients = Vec<Client>;

/// Everything one worker owns: its piece of the site plus the in-progress
/// batch's staged results. Locked by the worker while draining its
/// queue and by the merge barrier (after [`ShardPool::wait_idle`]) to
/// collect — never both at once, so the mutex is uncontended.
#[derive(Debug)]
pub(crate) struct WorkerGroup {
    /// The shards this worker exclusively owns.
    pub(crate) part: ShardedSite,
    /// This worker's staged actions for the in-progress batch.
    pub(crate) scratch: Vec<Action>,
    /// Rounds started this batch: the transaction plus every client op
    /// it carries, in payload order — one entry per read round, one per
    /// update batch. `txn` is `None` when the kernel refused to start
    /// anything (answered `Overloaded` at merge time).
    pub(crate) starts: Vec<(Option<TxnId>, RoundClients)>,
    /// Ops refused at the per-object queue bound this batch (answered
    /// `Overloaded` at merge time).
    pub(crate) overflows: RoundClients,
    /// `Make_Current` transactions started by `Recover` items this
    /// batch.
    pub(crate) restarts: Vec<TxnId>,
    /// Per-object pending-op FIFOs: ops that arrived while the object's
    /// lock was held, drained up to `max_batch` at a time into one
    /// quorum round whenever the lock frees.
    queues: HashMap<ObjectId, VecDeque<QueuedOp>>,
    /// Most queued updates one quorum round may seal.
    max_batch: usize,
    /// This group's index in the pool, for the stats row.
    worker: usize,
    stats: Arc<ShardStats>,
}

impl WorkerGroup {
    /// Park one op on its object's FIFO, refusing at the bound.
    fn enqueue(&mut self, object: ObjectId, op: QueuedOp) {
        let queue = self.queues.entry(object).or_default();
        if queue.len() >= PER_OBJECT_QUEUE_LIMIT {
            self.overflows.push(op.client);
            return;
        }
        queue.push_back(op);
        self.stats
            .note_pipeline_depth(self.worker, queue.len() as u64);
    }

    /// Empty every queue, returning the ops for the caller to answer
    /// (crash and shutdown paths).
    pub(crate) fn fail_queued(&mut self) -> RoundClients {
        self.queues
            .values_mut()
            .flat_map(|queue| queue.drain(..))
            .map(|op| op.client)
            .collect()
    }
}

/// Run one item against the group's piece, staging actions into its
/// scratch. The only code that touches kernels — on the owning worker
/// thread, or inline on the scheduler with one worker. Client updates
/// and reads are parked on their object's FIFO first; after every item
/// the object's queue is pumped, so an op on an idle object starts its
/// round immediately (no batching latency tax) while ops that arrived
/// under a held lock drain in one multi-op round the moment it frees.
pub(crate) fn process_item(group: &mut WorkerGroup, item: WorkItem) {
    let object = item.object();
    match item {
        WorkItem::Peer { from, msg } => {
            // Unhosted or foreign-piece objects are dropped, not
            // panicked on: a misrouted frame must not kill the worker.
            group.part.handle_message(from, msg, &mut group.scratch);
        }
        WorkItem::Op {
            object,
            payload,
            client,
        } => group.enqueue(object, QueuedOp { payload, client }),
        WorkItem::Timer { txn, kind } => {
            group.part.timer_fired(txn, kind, &mut group.scratch);
        }
        WorkItem::SuspicionGrew { txn } => {
            group.part.suspicion_grew(txn, &mut group.scratch);
        }
        WorkItem::Suspected(suspected) => group.part.set_suspected(suspected),
        WorkItem::Recover { object, payload } => {
            let start = group.scratch.len();
            group.part.recover(object, payload, &mut group.scratch);
            // Tag the Make_Current transaction (if one started) so the
            // merge books its commit as restart traffic.
            for action in &group.scratch[start..] {
                if let Action::Broadcast {
                    msg: Message::VoteRequest { txn },
                } = action
                {
                    group.restarts.push(*txn);
                }
            }
        }
    }
    if let Some(object) = object {
        pump(group, object);
    }
}

/// Drain `object`'s pending-op FIFO into quorum rounds while its lock
/// is free: a head-of-queue read runs alone (reads cannot share an
/// update's log append); a head-of-queue update takes every
/// consecutively queued update behind it — up to `max_batch` — into
/// ONE vote/commit round via `start_update_batch`. The loop keeps
/// going because a round can resolve synchronously (single-site
/// views, immediate refusals); normally the freshly taken lock ends
/// it after one round.
fn pump(group: &mut WorkerGroup, object: ObjectId) {
    loop {
        if !group
            .queues
            .get(&object)
            .is_some_and(|queue| !queue.is_empty())
        {
            return;
        }
        let unlocked = group
            .part
            .shard(object)
            .is_some_and(|shard| !shard.is_locked());
        if !unlocked {
            return;
        }
        let queue = group.queues.get_mut(&object).expect("checked non-empty");
        if queue.front().is_some_and(|op| op.client.read) {
            let read = queue.pop_front().expect("front checked as read");
            let start = group.scratch.len();
            group.part.start_read(object, &mut group.scratch);
            let txn = txn_started(&group.scratch[start..]);
            group.starts.push((txn, vec![read.client]));
            continue;
        }
        // A run of consecutive updates, in FIFO (= payload-assignment)
        // order, capped by the adaptive batch bound.
        let mut payloads = Vec::new();
        let mut clients = Vec::new();
        while payloads.len() < group.max_batch && queue.front().is_some_and(|op| !op.client.read) {
            let update = queue.pop_front().expect("front checked as update");
            payloads.push(update.payload);
            clients.push(update.client);
        }
        let txn = group
            .part
            .start_update_batch(object, &payloads, &mut group.scratch);
        group.stats.note_batch(payloads.len() as u64);
        group.starts.push((txn, clients));
    }
}

/// The transaction a client request started, found by scanning the
/// actions the kernel just staged — the kernel does not return the
/// `TxnId` directly. `None` means the kernel refused.
fn txn_started(staged: &[Action]) -> Option<TxnId> {
    staged.iter().find_map(|action| match action {
        Action::Broadcast {
            msg: Message::VoteRequest { txn },
        }
        | Action::Resolved { txn, .. }
        | Action::SetTimer { txn, .. } => Some(*txn),
        _ => None,
    })
}

#[derive(Debug, Default)]
struct Queue {
    items: VecDeque<WorkItem>,
    closed: bool,
}

/// The scheduler <-> worker rendezvous for one worker.
#[derive(Debug)]
struct WorkerShared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
    /// Items fully processed; [`ShardPool::wait_idle`] compares this
    /// against the pool's per-worker submission counter.
    completed: Mutex<u64>,
    done_cv: Condvar,
    group: Mutex<WorkerGroup>,
}

/// A worker thread's body: sleep until items arrive, drain the whole
/// burst in one queue-lock acquisition, run the kernels under the group
/// lock only, then publish the completion count for the merge barrier.
fn worker_loop(shared: &WorkerShared) {
    loop {
        let mut queue = shared.queue.lock().expect("shard queue poisoned");
        while queue.items.is_empty() && !queue.closed {
            queue = shared.work_cv.wait(queue).expect("shard queue poisoned");
        }
        if queue.items.is_empty() {
            return; // closed and fully drained
        }
        let batch: Vec<WorkItem> = queue.items.drain(..).collect();
        drop(queue);
        let done = batch.len() as u64;
        {
            let mut group = shared.group.lock().expect("shard group poisoned");
            for item in batch {
                process_item(&mut group, item);
            }
        }
        *shared.completed.lock().expect("shard counter poisoned") += done;
        shared.done_cv.notify_all();
    }
}

/// The node's worker pool: the per-worker rendezvous structures, the
/// spawned threads (none with one worker), and the submission counters
/// the merge barrier compares against. Owned by the scheduler for the
/// lifetime of [`super::Node::run`].
pub(crate) struct ShardPool {
    workers: usize,
    shareds: Vec<Arc<WorkerShared>>,
    /// Items enqueued per worker since launch. Scheduler-private — the
    /// scheduler is the only dispatcher — so no atomics needed.
    submitted: Vec<u64>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<ShardStats>,
}

impl ShardPool {
    /// Split `sharded` across `workers` groups and, for pools of more
    /// than one worker, spawn the worker threads
    /// (`dynvote-shard-<site>-<worker>`).
    pub(crate) fn launch(
        site: SiteId,
        sharded: ShardedSite,
        workers: usize,
        stats: Arc<ShardStats>,
        max_batch: usize,
    ) -> Self {
        let shareds: Vec<Arc<WorkerShared>> = sharded
            .split(workers)
            .into_iter()
            .enumerate()
            .map(|(w, part)| {
                Arc::new(WorkerShared {
                    queue: Mutex::new(Queue::default()),
                    work_cv: Condvar::new(),
                    completed: Mutex::new(0),
                    done_cv: Condvar::new(),
                    group: Mutex::new(WorkerGroup {
                        part,
                        scratch: Vec::new(),
                        starts: Vec::new(),
                        overflows: Vec::new(),
                        restarts: Vec::new(),
                        queues: HashMap::new(),
                        max_batch: max_batch.max(1),
                        worker: w,
                        stats: Arc::clone(&stats),
                    }),
                })
            })
            .collect();
        let handles = if workers > 1 {
            shareds
                .iter()
                .enumerate()
                .map(|(w, shared)| {
                    let shared = Arc::clone(shared);
                    thread::Builder::new()
                        .name(format!("dynvote-shard-{}-{w}", site.0))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn shard worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        ShardPool {
            workers,
            shareds,
            submitted: vec![0; workers],
            handles,
            stats,
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The worker owning `object` under the static partition.
    pub(crate) fn owner_of(&self, object: ObjectId) -> usize {
        object.index() % self.workers
    }

    /// Hand one item to its owning worker: inline (no threads, no
    /// queueing) with one worker, queued behind the worker's condvar
    /// otherwise.
    pub(crate) fn dispatch(&mut self, item: WorkItem) {
        let object = item.object().expect("an item for one object");
        self.dispatch_to(self.owner_of(object), item);
    }

    /// Hand every worker the node's new peer-suspicion set, in order
    /// with the rest of its work: items dispatched before this still
    /// run under the old set, items dispatched after it under the new.
    pub(crate) fn set_suspected(&mut self, suspected: SiteSet) {
        for w in 0..self.workers {
            self.dispatch_to(w, WorkItem::Suspected(suspected));
        }
    }

    fn dispatch_to(&mut self, w: usize, item: WorkItem) {
        self.stats.note_dispatch(w);
        if self.handles.is_empty() {
            let mut group = self.shareds[w].group.lock().expect("shard group poisoned");
            process_item(&mut group, item);
            return;
        }
        let depth = {
            let mut queue = self.shareds[w].queue.lock().expect("shard queue poisoned");
            queue.items.push_back(item);
            queue.items.len() as u64
        };
        self.submitted[w] += 1;
        self.stats.note_queue_depth(w, depth);
        self.shareds[w].work_cv.notify_one();
    }

    /// The merge barrier's first half: block until every worker has
    /// processed everything dispatched to it, recording how long the
    /// scheduler waited.
    pub(crate) fn wait_idle(&self) {
        if self.handles.is_empty() {
            self.stats.note_merge(0);
            return;
        }
        let start = Instant::now();
        for (w, shared) in self.shareds.iter().enumerate() {
            let mut completed = shared.completed.lock().expect("shard counter poisoned");
            while *completed < self.submitted[w] {
                completed = shared
                    .done_cv
                    .wait(completed)
                    .expect("shard counter poisoned");
            }
        }
        self.stats.note_merge(start.elapsed().as_nanos() as u64);
    }

    /// Lock every worker's group, in worker order. Callers must have
    /// drained the pool first ([`Self::wait_idle`]); the scheduler is
    /// the only dispatcher, so nothing new arrives while the guards are
    /// held.
    pub(crate) fn lock_groups(&self) -> Vec<MutexGuard<'_, WorkerGroup>> {
        self.shareds
            .iter()
            .map(|s| s.group.lock().expect("shard group poisoned"))
            .collect()
    }

    /// Replace every worker's piece with a freshly restored site's — a
    /// disk reboot under `ClientOp::Recover`.
    pub(crate) fn install(&self, sharded: ShardedSite) {
        let parts = sharded.split(self.workers);
        for (shared, part) in self.shareds.iter().zip(parts) {
            shared.group.lock().expect("shard group poisoned").part = part;
        }
    }

    /// Close every queue and join every worker thread. The scheduler
    /// merges first, so queues are already empty; `closed` makes the
    /// drain-then-exit handshake race-free regardless.
    pub(crate) fn shutdown(self) {
        for shared in &self.shareds {
            shared.queue.lock().expect("shard queue poisoned").closed = true;
            shared.work_cv.notify_all();
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_layout_matches_names() {
        let stats = ShardStats::new(2, 3);
        stats.note_dispatch(1);
        stats.note_queue_depth(0, 5);
        stats.note_merge(120);
        stats.note_pipeline_depth(1, 4);
        stats.note_batch(3);
        let names = stats.names();
        let counts = stats.snapshot();
        assert_eq!(names.len(), counts.len());
        // The pre-pipelining prefix keeps its exact positions so old
        // readers' indices stay valid...
        assert_eq!(names[0], "shard_worker0_dispatched");
        assert_eq!(names[2], "shard_worker0_queue_peak");
        assert_eq!(names[4], "shard_merge_barriers");
        assert_eq!(names[5], "shard_merge_wait_ns");
        assert_eq!(&counts[..6], &[0, 1, 5, 0, 1, 120]);
        // ...and the pipelining counters are appended after it.
        assert_eq!(names[6], "pipeline_queue_peak_w0");
        assert_eq!(names[7], "pipeline_queue_peak_w1");
        assert_eq!(names[8], "pipeline_batch_le1");
        assert_eq!(names[10], "pipeline_batch_le4");
        assert_eq!(names[15], "pipeline_batch_gt64");
        assert_eq!(&counts[6..8], &[0, 4]);
        assert_eq!(&counts[8..], &[0, 0, 1, 0, 0, 0, 0, 0]); // 3 ops → le4
    }

    #[test]
    fn queue_peak_is_a_high_water_mark() {
        let stats = ShardStats::new(1, 3);
        stats.note_queue_depth(0, 7);
        stats.note_queue_depth(0, 3);
        assert_eq!(stats.snapshot()[1], 7);
        stats.note_queue_depth(0, 9);
        assert_eq!(stats.snapshot()[1], 9);
    }

    #[test]
    fn batch_sizes_land_in_their_buckets() {
        let stats = ShardStats::new(1, 3);
        for ops in [1, 1, 2, 5, 64, 65, 1000] {
            stats.note_batch(ops);
        }
        let counts = stats.snapshot();
        // Layout for W=1: [disp, qp, mb, mwns, pqp, buckets(8)].
        let buckets = &counts[5..];
        assert_eq!(buckets, &[2, 1, 0, 1, 0, 0, 1, 2]);
    }
}
