//! The node's kernel step: the per-object commit-pipelining FIFOs in
//! front of its [`ShardedSite`](dynvote_protocol::ShardedSite), and the
//! counters that make the node observable.
//!
//! Every kernel runs on the one thread that hosts the node.
//! The scheduler hands each event straight to its object's shard
//! ([`Node::step`]), which stages the resulting actions in the node's
//! scratch buffer and then pumps that object's FIFO; the merge barrier
//! (`merge.rs`) seals and dispatches the lot.

use crate::{Client, Node, MAX_BATCH};
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{Input, ObjectId, SiteActor, TxnId};
use std::collections::hash_map::Entry;
use std::time::Duration;

/// Node counters: plain values the node bumps on the thread that hosts
/// it. The host reads them by reference ([`Node::shard_stats`]) for the
/// `ShardStats` client op and the front door's `/metrics` and
/// `/status`; another thread reads a copy by asking the host.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Kernel steps run since launch: one per routed message, client
    /// op, timer, restart, re-test and suspicion-set hand-over.
    pub(crate) dispatched: u64,
    /// Merge barriers executed.
    pub(crate) merge_barriers: u64,
    /// High-water mark of any single object's pending-op FIFO.
    pipeline_queue_peak: u64,
    /// Histogram of quorum-round batch sizes: how many client updates
    /// each update round sealed, bucketed by
    /// [`Self::BATCH_BUCKETS`].
    batch_sizes: Vec<u64>,
    /// The node's peer-suspicion set (a gauge).
    pub(crate) suspected: SiteSet,
    /// Per peer: vote deadlines that fired without its reply.
    vote_deadline_missed: Vec<u64>,
    /// Per peer: straggler graces that ran out without its reply and
    /// closed the round (its replies were distinguished without it).
    vote_grace_missed: Vec<u64>,
    /// Per peer: smoothed vote latency in microseconds (a gauge; 0
    /// until the peer has voted in a round coordinated here).
    peer_vote_rtt_us: Vec<u64>,
    /// The straggler grace the latest round was given, in microseconds
    /// (a gauge).
    vote_grace_us: u64,
    /// Quorum rounds that closed before their vote deadline because
    /// only suspected peers were still silent.
    pub(crate) rounds_closed_early: u64,
    /// Client ops this node handed to an object's home site.
    pub(crate) forwarded_out: u64,
    /// Client ops other sites handed to this node.
    pub(crate) forwarded_in: u64,
    /// Forwarded ops whose answer never came back in time.
    pub(crate) forward_timeouts: u64,
    /// Rounds coordinated here that lost a lock race.
    pub(crate) contended: u64,
    /// Objects with a home hint right now (a gauge).
    pub(crate) routed_objects: u64,
}

impl ShardStats {
    /// Upper bounds of the batch-size histogram buckets (the last
    /// bucket is open-ended: every batch larger than 64 ops).
    pub const BATCH_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, u64::MAX];

    /// Fresh counters for one node of a `sites`-site cluster.
    #[must_use]
    pub fn new(sites: usize) -> Self {
        ShardStats {
            dispatched: 0,
            merge_barriers: 0,
            pipeline_queue_peak: 0,
            batch_sizes: vec![0; Self::BATCH_BUCKETS.len()],
            suspected: SiteSet::EMPTY,
            vote_deadline_missed: vec![0; sites],
            vote_grace_missed: vec![0; sites],
            peer_vote_rtt_us: vec![0; sites],
            vote_grace_us: 0,
            rounds_closed_early: 0,
            forwarded_out: 0,
            forwarded_in: 0,
            forward_timeouts: 0,
            contended: 0,
            routed_objects: 0,
        }
    }

    fn note_pipeline_depth(&mut self, depth: u64) {
        self.pipeline_queue_peak = self.pipeline_queue_peak.max(depth);
    }

    fn note_batch(&mut self, ops: u64) {
        let bucket = Self::BATCH_BUCKETS
            .iter()
            .position(|&hi| ops <= hi)
            .unwrap_or(Self::BATCH_BUCKETS.len() - 1);
        self.batch_sizes[bucket] += 1;
    }

    /// A round closed without `peer`'s vote: at its straggler grace, or
    /// else at its vote deadline.
    pub(crate) fn note_vote_missed(&mut self, peer: SiteId, at_grace: bool) {
        let counts = if at_grace {
            &mut self.vote_grace_missed
        } else {
            &mut self.vote_deadline_missed
        };
        if let Some(count) = counts.get_mut(peer.index()) {
            *count += 1;
        }
    }

    pub(crate) fn note_vote_rtt(&mut self, peer: SiteId, srtt: Duration) {
        if let Some(gauge) = self.peer_vote_rtt_us.get_mut(peer.index()) {
            *gauge = srtt.as_micros() as u64;
        }
    }

    pub(crate) fn note_vote_grace(&mut self, grace: Duration) {
        self.vote_grace_us = grace.as_micros() as u64;
    }

    /// The peers this node currently suspects of being silent. The
    /// peer-health and routing readings (this one down to
    /// [`Self::routed_objects`]) are served on `/metrics` and `/status`
    /// only: [`Self::snapshot`] keeps its layout, because wire readers
    /// locate the batch histogram from its tail.
    #[must_use]
    pub fn suspected(&self) -> SiteSet {
        self.suspected
    }

    /// Per peer (indexed by site), how many vote deadlines fired
    /// without its reply.
    #[must_use]
    pub fn vote_deadline_missed(&self) -> &[u64] {
        &self.vote_deadline_missed
    }

    /// Per peer (indexed by site), how many rounds closed at their
    /// straggler grace without its reply.
    #[must_use]
    pub fn vote_grace_missed(&self) -> &[u64] {
        &self.vote_grace_missed
    }

    /// Per peer (indexed by site), the smoothed latency of its votes in
    /// microseconds; 0 for a peer that has not voted here yet.
    #[must_use]
    pub fn peer_vote_rtt_us(&self) -> &[u64] {
        &self.peer_vote_rtt_us
    }

    /// The straggler grace of the latest round coordinated here, in
    /// microseconds.
    #[must_use]
    pub fn vote_grace_us(&self) -> u64 {
        self.vote_grace_us
    }

    /// Quorum rounds closed ahead of their vote deadline.
    #[must_use]
    pub fn rounds_closed_early(&self) -> u64 {
        self.rounds_closed_early
    }

    /// Client ops this node handed to an object's home site.
    #[must_use]
    pub fn forwarded_out(&self) -> u64 {
        self.forwarded_out
    }

    /// Client ops other sites handed to this node to coordinate.
    #[must_use]
    pub fn forwarded_in(&self) -> u64 {
        self.forwarded_in
    }

    /// Forwarded ops answered `TimedOut` because the home never did.
    #[must_use]
    pub fn forward_timeouts(&self) -> u64 {
        self.forward_timeouts
    }

    /// Rounds coordinated here that lost a lock race.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Objects whose ops this node currently routes to another site.
    #[must_use]
    pub fn routed_objects(&self) -> u64 {
        self.routed_objects
    }

    /// The five routing readings by name, for `/metrics` and `/status`
    /// (`routed_objects` is a gauge, the rest are running totals).
    #[must_use]
    pub fn routing(&self) -> [(&'static str, u64); 5] {
        [
            ("contended", self.contended),
            ("routed_objects", self.routed_objects),
            ("forwarded_out", self.forwarded_out),
            ("forwarded_in", self.forwarded_in),
            ("forward_timeouts", self.forward_timeouts),
        ]
    }

    /// One row of 13 counters, in [`Self::names_for`] order:
    /// `[dispatched, queue_peak, merge_barriers, merge_wait_ns,
    /// pipeline_queue_peak, batch_sizes(8)]`. `queue_peak` and
    /// `merge_wait_ns` always read 0 — nothing queues between threads
    /// and nobody waits at the barrier — but keep their slots: wire
    /// readers locate counters by name and the batch histogram by the
    /// tail.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        let mut counts = vec![
            self.dispatched,
            0,
            self.merge_barriers,
            0,
            self.pipeline_queue_peak,
        ];
        counts.extend(&self.batch_sizes);
        counts
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

/// One client op parked in an object's commit-pipelining FIFO, waiting
/// for the object's lock to free. A read never shares a round with
/// updates, only with the reads queued beside it, and it keeps its FIFO
/// position.
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
        self.shard_stats.dispatched += 1;
        let started = self.site.step(object, input, &mut self.scratch);
        self.pump(object);
        started
    }

    /// Run the Section V-C restart protocol (`Make_Current`) on one
    /// object. The transaction it starts (if any) is pending with no
    /// client, so the merge books its commit as restart traffic, not
    /// workload, and a crash ends it like any other round.
    pub(super) fn restart(&mut self, object: ObjectId) {
        let restart_payload = self.fresh_payload();
        let started = self.step(object, Input::Recover { restart_payload });
        self.park(started, Vec::new());
    }

    /// Hand the kernels the scheduler's copy of the peer-suspicion set.
    pub(super) fn share_suspected(&mut self) {
        self.shard_stats.dispatched += 1;
        self.site.set_suspected(self.suspected);
    }

    /// Park a client update or read on its object's FIFO — refused at
    /// the bound, answered `Overloaded` at the next merge — and pump:
    /// an op on an idle object starts its round at once (no batching
    /// latency tax), while ops that arrived under a held lock drain in
    /// one multi-op round the moment it frees.
    pub(super) fn enqueue(&mut self, object: ObjectId, payload: u64, client: Client) {
        self.shard_stats.dispatched += 1;
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
    /// lock is free. Each round takes the run of same-kind ops at the
    /// head of the FIFO, up to [`MAX_BATCH`]: a run of updates is ONE
    /// vote/commit round via [`Input::Update`], sealing consecutive log
    /// entries; a run of reads is one [`Input::Read`] round, whose
    /// `ReadServed` the merge fans out to each of them (a read commits
    /// nothing, so the reads share everything). The loop keeps going
    /// because a round can resolve synchronously (single-site views,
    /// immediate refusals); normally the freshly taken lock ends it
    /// after one round.
    fn pump(&mut self, object: ObjectId) {
        loop {
            let Some(queue) = self.queues.get_mut(&object).filter(|q| !q.is_empty()) else {
                return;
            };
            if self.site.shard(object).map_or(true, SiteActor::is_locked) {
                return;
            }
            let read = queue.front().is_some_and(|op| op.client.read);
            // Updates in FIFO (= payload-assignment) order; a read run
            // collects no payloads.
            self.payloads.clear();
            let mut clients = Vec::new();
            while clients.len() < MAX_BATCH
                && queue.front().is_some_and(|op| op.client.read == read)
            {
                let op = queue.pop_front().expect("front checked");
                if !read {
                    self.payloads.push(op.payload);
                }
                clients.push(op.client);
            }
            let input = if read {
                Input::Read
            } else {
                self.shard_stats.note_batch(self.payloads.len() as u64);
                Input::Update {
                    payloads: &self.payloads,
                    hold: false,
                }
            };
            let txn = self.site.step(object, input, &mut self.scratch);
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
            Some(txn) => match self.pending.entry(txn) {
                Entry::Occupied(mut parked) => parked.get_mut().extend(clients),
                Entry::Vacant(slot) => {
                    slot.insert(clients);
                }
            },
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
        let mut stats = ShardStats::new(3);
        stats.dispatched += 2;
        stats.merge_barriers += 1;
        stats.note_pipeline_depth(4);
        stats.note_batch(3);
        let names = ShardStats::names_for(1);
        let counts = stats.snapshot();
        assert_eq!(counts.len(), 13);
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
        let mut stats = ShardStats::new(3);
        stats.note_pipeline_depth(7);
        stats.note_pipeline_depth(3);
        assert_eq!(stats.snapshot()[4], 7);
        stats.note_pipeline_depth(9);
        assert_eq!(stats.snapshot()[4], 9);
    }

    #[test]
    fn batch_sizes_land_in_their_buckets() {
        let mut stats = ShardStats::new(3);
        for ops in [1, 1, 2, 5, 64, 65, 1000] {
            stats.note_batch(ops);
        }
        let counts = stats.snapshot();
        let buckets = &counts[5..];
        assert_eq!(buckets, &[2, 1, 0, 1, 0, 0, 1, 2]);
    }
}
