//! The scheduler: the five calls every host drives ([`Node::start`],
//! [`Node::on_event`], [`Node::end_batch`], [`Node::next_timer_in`],
//! [`Node::finish`]). Each takes the host's `now`, the only clock the
//! node sees. Each event goes to its object's shard ([`Node::step`]).
//! The deadline queue, reachability filtering, the crash/recover fault
//! model, and control-plane queries all live here.

use crate::{Client, Deadline, Node, NodeEvent, ReplyTo, Route};
use crate::{ClientOp, ClientReply, PeerFrame};
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{Input, Message, ObjectId, TimerKind, TxnId};
use dynvote_storage::NodeStore;
use rand::Rng;
use std::time::{Duration, Instant};

impl Node {
    /// Close the batch the host has handed over since the last call:
    /// fire every deadline due by `now`, then merge the whole
    /// batch behind **one** group-commit barrier and rotate the WAL if
    /// it is due. The host then transmits the outbox once.
    ///
    /// The single barrier + single transmission per batch is what makes
    /// the durable hot path cheap: every persist effect the batch
    /// produced — across every shard — is sealed by one fsync, and each
    /// peer gets one write.
    pub fn end_batch(&mut self, now: Instant) {
        self.fire_due(now);
        // One barrier seals the batch's persist effects, then the staged
        // sends and replies go to the outbox.
        self.merge(now);
        // Between batches: rotate the WAL if it has grown past the
        // configured threshold (no-op for amnesiac nodes). Safe here
        // because merge() just drained the pending record.
        self.maybe_rotate();
    }

    /// Stop: seal what the last batch staged into the outbox, then fail
    /// every op still parked with `Down`. The host drains the outbox
    /// once more and calls nothing else.
    pub fn finish(&mut self, now: Instant) {
        self.merge(now);
        // Ops still parked in per-object FIFOs never started a round;
        // fail them alongside the in-flight ones.
        self.fail_parked();
    }

    /// Fail every data-plane op parked anywhere in the node — queued
    /// behind an object's lock, riding a round, or in flight to another
    /// site — with `Down`, each exactly once (crash and shutdown).
    fn fail_parked(&mut self) {
        let mut parked: Vec<Client> = self
            .queues
            .values_mut()
            .flat_map(|queue| queue.drain(..))
            .map(|op| op.client)
            .collect();
        parked.extend(self.pending.drain().flat_map(|(_, clients)| clients));
        for client in parked {
            self.answer(client, ClientReply::Down);
        }
        self.drop_routes();
    }

    /// Boot: resume every transaction the disk left in doubt. The host
    /// calls this once, before the first event.
    ///
    /// A durable node that boots with a prepare record on disk is in
    /// doubt on that transaction: before serving any traffic it must
    /// re-acquire the lock the record guards and resume the
    /// termination protocol (Section V-C), exactly as the in-process
    /// recover path does. Without this, the site comes up unlocked —
    /// the next vote request overwrites the prepare record and the
    /// in-doubt commit is orphaned, which can wedge the whole cluster
    /// (a coordinator that committed alone is the only current copy,
    /// and no partition is ever distinguished again). The StatusQuery
    /// broadcast may race the peers' own boots; the PreparedRetry
    /// timer the round arms re-sends it until someone answers.
    pub fn start(&mut self, now: Instant) {
        if self.durability.is_none() {
            return;
        }
        // `iter` walks objects in order, so restart payloads are
        // assigned in object order: the recovery byte-stream is a
        // function of the disk alone.
        let in_doubt: Vec<ObjectId> = self
            .site
            .iter()
            .filter(|(_, shard)| shard.is_in_doubt())
            .map(|(object, _)| object)
            .collect();
        if in_doubt.is_empty() {
            return;
        }
        for object in in_doubt {
            self.restart(object);
        }
        self.merge(now);
    }

    /// Run one event, which reached the host at `now`, on its object's
    /// shard. Actions are **staged** in the scratch buffer; nothing
    /// reaches the outbox until the batch's [`Node::end_batch`] — except
    /// control and diagnostic replies, which merge first. Either way the
    /// host transmits only after the batch closes.
    pub fn on_event(&mut self, event: NodeEvent, now: Instant) {
        match event {
            NodeEvent::Peer { from, frame } if self.hears(from) => match frame {
                PeerFrame::Msg(msg) => {
                    if let Message::VoteGranted { txn, .. } | Message::VoteBusy { txn, .. } = &msg {
                        self.note_vote(*txn, from, now);
                    }
                    // Unhosted objects are dropped, not panicked on: a
                    // hostile frame must not kill the node.
                    let object = msg.txn().object;
                    self.step(object, Input::Message { from, msg });
                }
                PeerFrame::Relay(relay) => self.on_relay(from, relay, now),
            },
            NodeEvent::Peer { .. } => {} // not heard: dropped at the boundary
            NodeEvent::Client { id, op, reply } => self.handle_client(id, op, reply, now),
        }
    }

    /// Whether a frame from `from` gets through: a crashed site hears
    /// nothing, a partitioned-away sender's frames are dropped at the
    /// boundary, and so is a sender id outside the cluster (the wire
    /// does not bound it).
    fn hears(&mut self, from: SiteId) -> bool {
        if self.down || from.index() >= self.n || !self.reachable.contains(from) {
            return false;
        }
        // A frame from a suspected peer proves the picture stale — a
        // link healed, a site restarted, a vote was merely late. Forget
        // all of it, not just this peer: whoever else was cut off with
        // it may be back too, and a round must not close without them
        // merely because this one spoke first. A peer that really is
        // still silent costs one more grace to re-learn.
        if self.suspected.contains(from) {
            self.set_suspected(SiteSet::EMPTY);
            self.share_suspected();
        }
        true
    }

    /// `from`'s vote for `txn` arrived at `now`: one sample of how fast
    /// that peer answers, whether or not the round is still open.
    fn note_vote(&mut self, txn: TxnId, from: SiteId, now: Instant) {
        if let Some(srtt) = self.vote_clock.sample(txn, from, now) {
            self.shard_stats.note_vote_rtt(from, srtt);
        }
    }

    /// The hosted object a wire key names, if any.
    fn object_for(&self, key: u32) -> Option<ObjectId> {
        ((key as usize) < self.objects).then_some(ObjectId(key))
    }

    /// A client update or read-only request.
    fn handle_data_op(&mut self, key: u32, read: bool, id: u64, reply: ReplyTo, now: Instant) {
        if self.down {
            self.reply(reply, id, ClientReply::Down);
            return;
        }
        let Some(object) = self.object_for(key) else {
            self.reply(reply, id, ClientReply::UnknownKey);
            return;
        };
        let client = Client {
            id,
            reply: Some(reply),
            read,
            route: Route::Free,
        };
        self.submit(object, client, now);
    }

    fn handle_client(&mut self, id: u64, op: ClientOp, reply: ReplyTo, now: Instant) {
        match op {
            ClientOp::Update { key } => self.handle_data_op(key, false, id, reply, now),
            ClientOp::Read { key } => self.handle_data_op(key, true, id, reply, now),
            ClientOp::Crash => {
                // Dispatch whatever earlier events in this batch staged
                // *before* the crash wipes volatile state: those
                // actions were produced by a live site, and the merge
                // seals their persist effects first.
                self.merge(now);
                if !self.down {
                    self.down = true;
                    // The kernels' copy of the set goes with the rest
                    // of their volatile state below.
                    self.set_suspected(SiteSet::EMPTY);
                    self.vote_clock.reset();
                    // Every deadline guards volatile state: none is
                    // armed again until the site recovers.
                    self.timers.clear();
                    self.round_timers.clear();
                    self.site.crash(&mut self.scratch);
                    // Parked ops die with the site, and so does what it
                    // learned about rivals.
                    self.fail_parked();
                }
                self.reply(reply, id, ClientReply::Ok);
            }
            ClientOp::Recover => {
                self.merge(now);
                if self.down {
                    self.down = false;
                    // A durable site restarts from its disk, not from
                    // whatever this process still holds in memory —
                    // the same code path a genuinely rebooted process
                    // takes.
                    self.reboot_from_disk();
                    for object in 0..self.objects {
                        self.restart(ObjectId(object as u32));
                    }
                    self.merge(now);
                }
                self.reply(reply, id, ClientReply::Ok);
            }
            ClientOp::SetReachable(set) => {
                // Staged sends were produced under the old topology;
                // let them leave before the partition takes effect.
                self.merge(now);
                self.reachable = set;
                self.reply(reply, id, ClientReply::Ok);
            }
            ClientOp::Probe { key } => {
                let Some(object) = self.object_for(key) else {
                    self.reply(reply, id, ClientReply::UnknownKey);
                    return;
                };
                // Seal staged durable ops before announcing state.
                self.merge(now);
                let shard = self.site.shard(object).expect("validated object");
                let probe = ClientReply::Probe {
                    meta: shard.meta(),
                    locked: shard.is_locked(),
                    in_doubt: shard.is_in_doubt(),
                    down: self.down,
                };
                self.reply(reply, id, probe);
            }
            ClientOp::Events => {
                // Count what the batch staged before reporting.
                self.merge(now);
                let counts = self.event_counts.to_vec();
                self.reply(reply, id, ClientReply::Events { counts });
            }
            ClientOp::DumpLog { key } => {
                let Some(object) = self.object_for(key) else {
                    self.reply(reply, id, ClientReply::UnknownKey);
                    return;
                };
                self.merge(now);
                let shard = self.site.shard(object).expect("validated object");
                let log = ClientReply::Log {
                    meta: shard.meta(),
                    entries: shard.log().to_vec(),
                };
                self.reply(reply, id, log);
            }
            ClientOp::Status => {
                self.merge(now);
                let shard = self.site.shard(ObjectId::ZERO).expect("object 0 hosted");
                let status = ClientReply::Status {
                    algorithm: self.algorithm.to_string(),
                    objects: self.objects as u32,
                    meta: shard.meta(),
                    reachable: self.reachable,
                    locked: self.site.any_locked(),
                    in_doubt: self.site.any_in_doubt(),
                    down: self.down,
                    log_len: self.site.iter().map(|(_, s)| s.log().len() as u64).sum(),
                    commits: self.commits,
                    wal_epoch: self.store.as_ref().map(NodeStore::epoch),
                };
                self.reply(reply, id, status);
            }
            // A node has no network: a host that has one answers this
            // from its own counters before the node sees it.
            ClientOp::NetStats => {
                let counts = Vec::new();
                self.reply(reply, id, ClientReply::NetStats { counts });
            }
            ClientOp::ShardStats => {
                let counts = self.shard_stats.snapshot();
                self.reply(reply, id, ClientReply::ShardStats { workers: 1, counts });
            }
        }
    }

    /// Rebuild the kernels from what the data directory says,
    /// discarding process memory — the in-process stand-in for a
    /// machine reboot. Called with the batch already merged. Under a
    /// group-commit fsync policy this honestly loses whatever the store
    /// had not yet synced.
    ///
    /// # Panics
    ///
    /// On I/O failure, matching the merge barrier's: a durable site
    /// that cannot read its own disk cannot rejoin.
    /// Corrupt or torn files do **not** panic — recovery truncates and
    /// reports.
    fn reboot_from_disk(&mut self) {
        if self.durability.is_none() {
            return;
        }
        let report = self.reload_site_from_disk().expect("reboot from data dir");
        if let Some(torn) = &report.truncated {
            eprintln!(
                "site {}: WAL tail truncated at epoch {} offset {}: {}",
                self.id, torn.epoch, torn.offset, torn.reason
            );
        }
    }

    /// Rotate the shared WAL into a fresh epoch behind a node-wide
    /// snapshot of every shard's durable state, when it has grown past
    /// the configured threshold. Called right after [`Node::merge`], so
    /// the pending group-commit record is empty and the snapshot is a
    /// consistent cut across all objects.
    fn maybe_rotate(&mut self) {
        let Some(store) = self.store.as_mut().filter(|store| store.wants_rotation()) else {
            return;
        };
        let states = self.site.iter().map(|(_, shard)| shard.durable());
        if let Err(err) = store.rotate(states) {
            // Rotation is an optimization; a failed attempt leaves every
            // appended record recoverable and is retried once the
            // segment appended to outgrows the threshold.
            eprintln!("site {}: WAL rotation failed: {err}", self.id);
        }
    }

    /// Replace the scheduler's copy of the peer-suspicion set, keeping
    /// its published gauge in step. The kernels learn of a change from
    /// [`Node::share_suspected`] and nowhere else.
    pub(crate) fn set_suspected(&mut self, suspected: SiteSet) {
        self.suspected = suspected;
        self.shard_stats.note_suspected(suspected);
    }

    /// The set grew: hand it to the kernels and have each round this
    /// node has open re-tested against it — a round whose live votes
    /// were all in hand before the set grew never sees another vote.
    /// The re-tests stage their actions like any other kernel step; the
    /// caller merges again to collect them.
    pub(super) fn push_suspicion(&mut self) {
        self.share_suspected();
        let open: Vec<TxnId> = self
            .pending
            .keys()
            .chain(&self.restart_txns)
            .copied()
            .collect();
        for txn in open {
            self.step(txn.object, Input::SuspicionGrew { txn });
        }
    }

    /// Whether a frame to `to` leaves the node: a crashed site is
    /// silent and a partition drops outbound traffic at the boundary.
    pub(super) fn reaches(&self, to: SiteId) -> bool {
        !self.down && self.reachable.contains(to)
    }

    /// Put a protocol message for `to` in the outbox, if it leaves the
    /// node at all.
    pub(crate) fn send(&mut self, to: SiteId, msg: Message) {
        if self.reaches(to) {
            self.out.peers.push((to, PeerFrame::Msg(msg)));
        }
    }

    /// Arm one protocol deadline, counted from `now`. `rounds` is the
    /// shard's current termination-round count, read by the merge pass.
    /// A vote deadline opens the round on the vote clock and
    /// brings the straggler grace with it, unless the grace would be
    /// the whole deadline anyway.
    pub(crate) fn arm_timer(&mut self, txn: TxnId, kind: TimerKind, rounds: u32, now: Instant) {
        let delay = match kind {
            TimerKind::VoteDeadline => {
                let deadline = self.config.vote_deadline;
                self.vote_clock.open(txn, now, deadline);
                let grace = self.vote_clock.grace(self.id, deadline);
                self.shard_stats.note_vote_grace(grace);
                if grace < deadline {
                    self.arm_at(now + grace, txn, TimerKind::VoteGrace);
                }
                deadline
            }
            // Only ever armed with its round's vote deadline, above.
            TimerKind::VoteGrace => return,
            TimerKind::CatchUpDeadline => self.config.catchup_deadline,
            TimerKind::PreparedRetry => {
                let u: f64 = self.rng.gen();
                let ms = self.config.backoff.delay(rounds, u);
                Duration::from_secs_f64(ms / 1000.0)
            }
        };
        self.arm_at(now + delay, txn, kind);
    }

    fn arm_at(&mut self, when: Instant, txn: TxnId, kind: TimerKind) {
        let id = self.timers.schedule(when, Deadline::Round(txn, kind));
        // Re-arming a kind still armed (a re-granted vote) replaces it.
        if let Some(replaced) = self.round_timers.insert((txn, kind), id) {
            self.timers.cancel(replaced);
        }
    }

    /// The kernel is done with `txn`: cancel every timer still armed
    /// for it.
    pub(super) fn clear_timers(&mut self, txn: TxnId) {
        for kind in TimerKind::ALL {
            if let Some(id) = self.round_timers.remove(&(txn, kind)) {
                self.timers.cancel(id);
            }
        }
    }

    /// Time from `now` until the node's next deadline: the longest the
    /// host may wait before [`Node::end_batch`] is due again (`None`: no
    /// deadline pending, wait for an event).
    pub fn next_timer_in(&mut self, now: Instant) -> Option<Duration> {
        let next = self.timers.next_deadline()?;
        Some(next.saturating_duration_since(now))
    }

    /// Fire every deadline due by `now`, in deadline order: a round's
    /// timer runs on its object's shard, and an overdue forward is
    /// answered. The caller's [`Node::merge`] collects the results with
    /// the batch.
    fn fire_due(&mut self, now: Instant) {
        while let Some((_, deadline)) = self.timers.pop_due(&now) {
            match deadline {
                Deadline::Round(txn, kind) => {
                    self.round_timers.remove(&(txn, kind));
                    self.step(txn.object, Input::Timer { txn, kind });
                }
                Deadline::Forward(id) => self.expire_forward(id),
            }
        }
    }

    /// A cluster-unique payload: site in the top bits, a local counter
    /// below, so divergence checks can attribute every committed value.
    /// Assigned in arrival order, which is one leg of the determinism
    /// contract.
    pub(super) fn fresh_payload(&mut self) -> u64 {
        self.payload_seq += 1;
        ((u64::from(self.id.0) + 1) << 48) | self.payload_seq
    }
}

#[cfg(test)]
mod tests {
    //! The node driven in synthetic time: nodes built directly, handed
    //! `t0 + offset` by the test — no sockets, no threads, no sleeps.
    //! Most tests drive one site of three; a [`pump`] steps a whole
    //! cluster of them.

    use super::*;
    use crate::{NodeConfig, Relay};
    use dynvote_core::AlgorithmKind;

    const NS: Duration = Duration::from_nanos(1);

    /// Site `id` of an `n`-site, one-object hybrid cluster.
    fn site(id: u8, n: usize) -> Node {
        let config = NodeConfig::default();
        Node::new(SiteId(id), n, 1, AlgorithmKind::Hybrid, config)
    }

    /// Site 1 of a 3-site, one-object hybrid cluster.
    fn node() -> Node {
        site(1, 3)
    }

    /// Hand every peer item in the nodes' outboxes to its target at
    /// `now`, then close the batch of each node that got one, until no
    /// node has anything left to send. Client replies stay in the
    /// outboxes. Returns how many peer items moved.
    fn pump(nodes: &mut [Node], now: Instant) -> usize {
        let mut moved = 0;
        loop {
            let mut items = Vec::new();
            for node in nodes.iter_mut() {
                let from = node.id;
                items.extend(node.out.peers.drain(..).map(|(to, item)| (from, to, item)));
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

    /// The same node with object 0's home at site 0, as a lost lock race
    /// against site 0 would have taught it.
    fn routed_node() -> Node {
        let mut node = node();
        node.learn_home(ObjectId::ZERO, SiteId(0));
        node
    }

    fn client(id: u64, op: ClientOp) -> NodeEvent {
        NodeEvent::Client {
            id,
            op,
            reply: ReplyTo(id),
        }
    }

    fn update(id: u64) -> NodeEvent {
        client(id, ClientOp::Update { key: 0 })
    }

    /// Take the peer items out of the outbox, as a host would.
    fn sent(node: &mut Node) -> Vec<(SiteId, PeerFrame)> {
        node.out.peers.drain(..).collect()
    }

    /// Take the client replies out of the outbox as `(id, reply)`.
    fn answered(node: &mut Node) -> Vec<(u64, ClientReply)> {
        let replies = node.out.replies.drain(..);
        replies.map(|(_, id, reply)| (id, reply)).collect()
    }

    fn forward_deadline(node: &Node) -> Duration {
        2 * (node.config.vote_deadline + node.config.catchup_deadline)
    }

    #[test]
    fn a_vote_deadline_fires_at_its_instant_and_not_a_nanosecond_before() {
        let mut node = node();
        let deadline = node.config.vote_deadline;
        let t = Instant::now();
        node.on_event(update(7), t);
        node.end_batch(t);
        assert_eq!(sent(&mut node).len(), 2, "a vote request to each peer");
        assert_eq!(answered(&mut node), []);
        // No peer has voted yet, so the grace is the whole deadline and
        // the deadline is the one entry on the wheel.
        assert_eq!(node.next_timer_in(t), Some(deadline));

        let early = t + deadline - NS;
        node.end_batch(early);
        assert_eq!(answered(&mut node), []);
        assert_eq!(node.shard_stats.vote_deadline_missed(), [0, 0, 0]);
        assert_eq!(node.next_timer_in(early), Some(NS));

        node.end_batch(t + deadline);
        assert_eq!(answered(&mut node), [(7, ClientReply::Rejected)]);
        assert_eq!(node.shard_stats.vote_deadline_missed(), [1, 0, 1]);
    }

    #[test]
    fn an_unanswered_forward_times_out_exactly_at_its_deadline() {
        let mut node = routed_node();
        let t = Instant::now();
        node.on_event(update(7), t);
        node.end_batch(t);
        let forward = Relay::Forward {
            id: 1,
            key: 0,
            read: false,
        };
        assert_eq!(sent(&mut node), [(SiteId(0), PeerFrame::Relay(forward))]);
        let late = t + forward_deadline(&node);
        assert_eq!(node.next_timer_in(t), Some(late - t));

        node.end_batch(late - NS);
        assert_eq!(answered(&mut node), []);
        assert_eq!(node.shard_stats.forward_timeouts(), 0);

        node.end_batch(late);
        assert_eq!(answered(&mut node), [(7, ClientReply::TimedOut)]);
        assert_eq!(node.shard_stats.forward_timeouts(), 1);
        // Never re-run: nothing else is pending, and the home that
        // timed out is forgotten.
        assert_eq!(node.next_timer_in(late), None);
        assert_eq!(node.usable_home(ObjectId::ZERO), None);
    }

    #[test]
    fn a_forward_answered_in_time_leaves_no_deadline_behind() {
        let mut node = routed_node();
        let t = Instant::now();
        node.on_event(update(7), t);
        node.end_batch(t);
        sent(&mut node);

        let on_time = t + Duration::from_millis(1);
        let committed = ClientReply::Committed { version: 1 };
        let reply = Relay::ForwardReply {
            id: 1,
            reply: committed.clone(),
        };
        node.on_event(
            NodeEvent::Peer {
                from: SiteId(0),
                frame: PeerFrame::Relay(reply),
            },
            on_time,
        );
        node.end_batch(on_time);
        assert_eq!(answered(&mut node), [(7, committed)]);
        assert_eq!(node.next_timer_in(on_time), None);

        node.end_batch(t + forward_deadline(&node));
        assert_eq!(answered(&mut node), []);
        assert_eq!(node.shard_stats.forward_timeouts(), 0);
    }

    #[test]
    fn a_crash_answers_a_forward_in_flight_once_and_nothing_fires_later() {
        let mut node = routed_node();
        let t = Instant::now();
        node.on_event(update(7), t);
        node.end_batch(t);
        sent(&mut node);

        let crashed = t + Duration::from_millis(1);
        node.on_event(client(8, ClientOp::Crash), crashed);
        node.end_batch(crashed);
        assert_eq!(
            answered(&mut node),
            [(7, ClientReply::Down), (8, ClientReply::Ok)]
        );
        assert_eq!(node.next_timer_in(crashed), None);

        let late = t + forward_deadline(&node);
        node.end_batch(late);
        node.finish(late);
        assert_eq!(answered(&mut node), []);
        assert_eq!(node.shard_stats.forward_timeouts(), 0);
    }

    #[test]
    fn a_committed_update_leaves_no_timer_armed_on_any_node() {
        let mut nodes: Vec<Node> = (0..5).map(|id| site(id, 5)).collect();
        let deadline = nodes[0].config.vote_deadline;
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
            for node in &mut nodes {
                assert_eq!(node.next_timer_in(t), None, "site {}", node.id);
                assert!(node.round_timers.is_empty(), "site {}", node.id);
            }
        }
    }
}
