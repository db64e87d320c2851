//! The node's kernel step: the per-object commit-pipelining FIFOs in
//! front of its [`ShardedSite`](dynvote_protocol::ShardedSite), and the
//! counters that make the node observable.
//!
//! Every kernel runs on the one thread that hosts the node.
//! The scheduler hands each event straight to its object's shard
//! ([`Node::step`]), which stages the resulting actions in the node's
//! scratch buffer and then pumps that object's FIFO; the merge barrier
//! (`merge.rs`) seals and dispatches the lot.

use crate::{Client, Node};
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{Input, ObjectId, SiteActor, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Node counters: relaxed atomics bumped on the hot path, snapshotted wholesale for loadgen reports
/// and the front door's `/metrics`.
#[derive(Debug)]
pub struct ShardStats {
    /// Kernel steps run since launch: one per routed message, client
    /// op, timer, restart, re-test and suspicion-set hand-over.
    dispatched: AtomicU64,
    /// Merge barriers executed.
    merge_barriers: AtomicU64,
    /// High-water mark of any single object's pending-op FIFO.
    pipeline_queue_peak: AtomicU64,
    /// Histogram of quorum-round batch sizes: how many client updates
    /// each update round sealed, bucketed by
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

    /// Fresh counters for one node of a `sites`-site cluster.
    #[must_use]
    pub fn new(sites: usize) -> Self {
        ShardStats {
            dispatched: AtomicU64::new(0),
            merge_barriers: AtomicU64::new(0),
            pipeline_queue_peak: AtomicU64::new(0),
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

    fn note_dispatch(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_merge(&self) {
        self.merge_barriers.fetch_add(1, Ordering::Relaxed);
    }

    fn note_pipeline_depth(&self, depth: u64) {
        self.pipeline_queue_peak.fetch_max(depth, Ordering::Relaxed);
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

    /// One row of 13 counters, in [`Self::names`] order: `[dispatched,
    /// queue_peak, merge_barriers, merge_wait_ns, pipeline_queue_peak,
    /// batch_sizes(8)]`. `queue_peak` and `merge_wait_ns` always read
    /// 0 — nothing queues between threads and nobody waits at the
    /// barrier — but keep their slots: wire readers locate counters by
    /// [`Self::names_for`] and the batch histogram by the tail.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        let mut counts = vec![
            self.dispatched.load(Ordering::Relaxed),
            0,
            self.merge_barriers.load(Ordering::Relaxed),
            0,
            self.pipeline_queue_peak.load(Ordering::Relaxed),
        ];
        counts.extend(load_all(&self.batch_sizes));
        counts
    }

    /// Counter names matching [`Self::snapshot`] positions, for JSON
    /// reports.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        Self::names_for(1)
    }

    /// The names of the snapshot a `ShardStats` reply carries, for the
    /// `workers` count in that reply — a wire client has no instance to
    /// ask. Every node reports 1, so this is only ever called with 1.
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

/// One client op parked in an object's commit-pipelining FIFO, waiting
/// for the object's lock to free. A read is never batched with updates
/// — it runs its own round — but it keeps its FIFO position.
#[derive(Debug)]
pub(crate) struct QueuedOp {
    /// An update's scheduler-assigned payload.
    payload: u64,
    pub(crate) client: Client,
}

/// Bound on one object's pending-op queue. An op arriving beyond it is
/// refused with the typed `Overloaded` reply instead of queueing
/// without bound — the front door surfaces that as `429 Retry-After`.
const PER_OBJECT_QUEUE_LIMIT: usize = 1024;

impl Node {
    /// One kernel step on `object`'s shard: count it, run it into the
    /// scratch buffer, then pump the object's FIFO — the step may have
    /// freed its lock. Returns the transaction the input started.
    pub(super) fn step(&mut self, object: ObjectId, input: Input<'_>) -> Option<TxnId> {
        self.shard_stats.note_dispatch();
        let started = self.site.step(object, input, &mut self.scratch);
        self.pump(object);
        started
    }

    /// Run the Section V-C restart protocol (`Make_Current`) on one
    /// object, tagging the transaction it starts (if any) so the merge
    /// books its commit as restart traffic, not workload.
    pub(super) fn restart(&mut self, object: ObjectId) {
        let restart_payload = self.fresh_payload();
        let started = self.step(object, Input::Recover { restart_payload });
        self.restart_txns.extend(started);
    }

    /// Hand the kernels the scheduler's copy of the peer-suspicion set.
    pub(super) fn share_suspected(&mut self) {
        self.shard_stats.note_dispatch();
        self.site.set_suspected(self.suspected);
    }

    /// Park a client update or read on its object's FIFO — refused at
    /// the bound, answered `Overloaded` at the next merge — and pump:
    /// an op on an idle object starts its round at once (no batching
    /// latency tax), while ops that arrived under a held lock drain in
    /// one multi-op round the moment it frees.
    pub(super) fn enqueue(&mut self, object: ObjectId, payload: u64, client: Client) {
        self.shard_stats.note_dispatch();
        let queue = self.queues.entry(object).or_default();
        if queue.len() >= PER_OBJECT_QUEUE_LIMIT {
            self.overflows.push(client);
        } else {
            queue.push_back(QueuedOp { payload, client });
            self.shard_stats.note_pipeline_depth(queue.len() as u64);
        }
        self.pump(object);
    }

    /// Drain `object`'s pending-op FIFO into quorum rounds while its
    /// lock is free: a head-of-queue read runs alone (reads cannot share
    /// an update's log append); a head-of-queue update takes every
    /// consecutively queued update behind it — up to `max_batch` — into
    /// ONE vote/commit round via [`Input::Update`]. The loop keeps
    /// going because a round can resolve synchronously (single-site
    /// views, immediate refusals); normally the freshly taken lock ends
    /// it after one round.
    fn pump(&mut self, object: ObjectId) {
        loop {
            let Some(queue) = self.queues.get_mut(&object).filter(|q| !q.is_empty()) else {
                return;
            };
            if self.site.shard(object).map_or(true, SiteActor::is_locked) {
                return;
            }
            if queue.front().is_some_and(|op| op.client.read) {
                let read = queue.pop_front().expect("front checked as read");
                let txn = self.site.step(object, Input::Read, &mut self.scratch);
                self.park(txn, vec![read.client]);
                continue;
            }
            // A run of consecutive updates, in FIFO (= payload-assignment)
            // order, capped by the adaptive batch bound.
            let mut payloads = Vec::new();
            let mut clients = Vec::new();
            while payloads.len() < self.max_batch && queue.front().is_some_and(|op| !op.client.read)
            {
                let update = queue.pop_front().expect("front checked as update");
                payloads.push(update.payload);
                clients.push(update.client);
            }
            let input = Input::Update {
                payloads: &payloads,
                hold: false,
            };
            let txn = self.site.step(object, input, &mut self.scratch);
            self.shard_stats.note_batch(payloads.len() as u64);
            self.park(txn, clients);
        }
    }

    /// Park a started round's client ops on its transaction, in payload
    /// order — the commit fan-out acks each at its own version. If the
    /// kernel refused to start anything they are answered `Overloaded`
    /// at the next merge: `pump` only starts rounds on an unlocked
    /// shard, so no client op gets here; were one to, it never ran.
    fn park(&mut self, txn: Option<TxnId>, clients: Vec<Client>) {
        match txn {
            Some(txn) => self.pending.entry(txn).or_default().extend(clients),
            None => self.overflows.extend(clients),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 13-slot layout wire readers decode by name and by tail.
    #[test]
    fn stats_snapshot_layout_matches_names() {
        let stats = ShardStats::new(3);
        stats.note_dispatch();
        stats.note_dispatch();
        stats.note_merge();
        stats.note_pipeline_depth(4);
        stats.note_batch(3);
        let names = stats.names();
        let counts = stats.snapshot();
        assert_eq!(counts.len(), 13);
        assert_eq!(names, ShardStats::names_for(1));
        assert_eq!(
            names[..5],
            [
                "shard_worker0_dispatched",
                "shard_worker0_queue_peak",
                "shard_merge_barriers",
                "shard_merge_wait_ns",
                "pipeline_queue_peak_w0",
            ]
        );
        assert_eq!(&counts[..5], &[2, 0, 1, 0, 4]);
        let buckets: Vec<String> = ["1", "2", "4", "8", "16", "32", "64"]
            .iter()
            .map(|hi| format!("pipeline_batch_le{hi}"))
            .chain(["pipeline_batch_gt64".to_string()])
            .collect();
        assert_eq!(names[5..], buckets[..]);
        assert_eq!(&counts[5..], &[0, 0, 1, 0, 0, 0, 0, 0]); // 3 ops → le4
    }

    #[test]
    fn queue_peak_is_a_high_water_mark() {
        let stats = ShardStats::new(3);
        stats.note_pipeline_depth(7);
        stats.note_pipeline_depth(3);
        assert_eq!(stats.snapshot()[4], 7);
        stats.note_pipeline_depth(9);
        assert_eq!(stats.snapshot()[4], 9);
    }

    #[test]
    fn batch_sizes_land_in_their_buckets() {
        let stats = ShardStats::new(3);
        for ops in [1, 1, 2, 5, 64, 65, 1000] {
            stats.note_batch(ops);
        }
        let counts = stats.snapshot();
        let buckets = &counts[5..];
        assert_eq!(buckets, &[2, 1, 0, 1, 0, 0, 1, 2]);
    }
}
