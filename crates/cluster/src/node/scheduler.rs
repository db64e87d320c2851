//! The scheduler: the five calls every host drives ([`Node::start`],
//! [`Node::on_event`], [`Node::end_batch`], [`Node::next_timer_in`],
//! [`Node::finish`]) and the channel host ([`Node::run`]). Each event
//! goes to its object's shard ([`Node::step`]). Wall-clock timers,
//! reachability filtering, the crash/recover fault model, and
//! control-plane queries all live here.

use super::{Client, Node, NodeEvent, ReplySink, Route};
use crate::transport::Transport;
use crate::wire::{ClientOp, ClientReply};
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{Input, Message, ObjectId, TimerKind, TxnId};
use dynvote_storage::NodeStore;
use rand::Rng;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// How many already-queued inbox events one loop iteration may drain
/// behind the blocking receive before timers fire and the transport
/// flushes. Bounded so a message storm cannot starve timers; large
/// enough that a commit fan-in coalesces into one flush.
const INBOX_BATCH: usize = 128;

/// Longest the channel host blocks on an idle inbox.
const IDLE_WAIT: Duration = Duration::from_millis(50);

impl<T: Transport> Node<T> {
    /// The channel host: block on `inbox` up to the next timer
    /// deadline, hand the burst queued behind the first event (bounded
    /// by [`INBOX_BATCH`]) to the node, then close the batch; repeat
    /// until [`NodeEvent::Shutdown`] or until every sender is gone.
    pub fn run(mut self, inbox: Receiver<NodeEvent>) {
        self.start();
        'outer: loop {
            let timeout = self.next_timer_in().map_or(IDLE_WAIT, |t| t.min(IDLE_WAIT));
            match inbox.recv_timeout(timeout) {
                Ok(NodeEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(event) => {
                    self.on_event(event);
                    for _ in 1..INBOX_BATCH {
                        match inbox.try_recv() {
                            Ok(NodeEvent::Shutdown) | Err(TryRecvError::Disconnected) => {
                                break 'outer;
                            }
                            Ok(event) => self.on_event(event),
                            Err(TryRecvError::Empty) => break,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.end_batch();
        }
        self.finish();
    }

    /// Close the batch the host has handed over since the last call:
    /// fire due timers and overdue forwards, then [`Node::merge`] the
    /// whole batch behind **one** group-commit barrier, rotate the WAL
    /// if it is due, and flush the transport once.
    ///
    /// The single barrier + single flush per batch is what makes the
    /// durable hot path cheap: every persist effect the batch produced
    /// — across every shard — is sealed by one fsync, and each peer
    /// gets one frame.
    pub(crate) fn end_batch(&mut self) {
        self.fire_due_timers();
        self.expire_forwards();
        // One barrier seals the batch's persist effects, then the staged
        // sends and replies dispatch.
        self.merge();
        // Between batches: rotate the WAL if it has grown past the
        // configured threshold (no-op for amnesiac nodes). Safe here
        // because merge() just drained the pending record.
        self.maybe_rotate();
        self.transport.flush();
    }

    /// Stop: seal and send what the last batch staged, then fail every
    /// op still parked with `Down`. The host calls nothing after this.
    pub(crate) fn finish(&mut self) {
        self.merge();
        self.transport.flush();
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
    pub(crate) fn start(&mut self) {
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
        self.merge();
        self.transport.flush();
    }

    /// Run one event on its object's shard. Actions are **staged** in
    /// the scratch buffer; nothing is sent or replied until the batch's
    /// [`Node::end_batch`] — except control and diagnostic operations,
    /// which manage the staging discipline explicitly (see
    /// [`Node::handle_client`]). [`NodeEvent::Shutdown`] is the host's
    /// to act on and is ignored here.
    pub(crate) fn on_event(&mut self, event: NodeEvent) {
        match event {
            NodeEvent::Peer { from, msg } => {
                if self.hears(from) {
                    if let Message::VoteGranted { txn, .. } | Message::VoteBusy { txn, .. } = &msg {
                        self.note_vote(*txn, from);
                    }
                    // Unhosted objects are dropped, not panicked on: a
                    // hostile frame must not kill the node.
                    let object = msg.txn().object;
                    self.step(object, Input::Message { from, msg });
                }
            }
            NodeEvent::Relay { from, relay } => {
                if self.hears(from) {
                    self.on_relay(from, relay);
                }
            }
            NodeEvent::Client { id, op, reply } => self.handle_client(id, op, reply),
            NodeEvent::Shutdown => {}
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

    /// `from`'s vote for `txn` arrived: one sample of how fast that
    /// peer answers, whether or not the round is still open.
    fn note_vote(&mut self, txn: TxnId, from: SiteId) {
        if let Some(srtt) = self.vote_clock.sample(txn, from, Instant::now()) {
            self.shard_stats.note_vote_rtt(from, srtt);
        }
    }

    /// Resolve a wire key to a hosted object, or fail the client.
    fn object_for(&self, key: u32, id: u64, reply: &ReplySink) -> Option<ObjectId> {
        if (key as usize) < self.objects {
            Some(ObjectId(key))
        } else {
            reply.send(id, ClientReply::UnknownKey);
            None
        }
    }

    /// A client update or read-only request.
    fn handle_data_op(&mut self, key: u32, read: bool, id: u64, reply: ReplySink) {
        if self.down {
            reply.send(id, ClientReply::Down);
            return;
        }
        let Some(object) = self.object_for(key, id, &reply) else {
            return;
        };
        let client = Client {
            id,
            reply,
            read,
            route: Route::Free,
        };
        self.submit(object, client);
    }

    fn handle_client(&mut self, id: u64, op: ClientOp, reply: ReplySink) {
        match op {
            ClientOp::Update { key } => self.handle_data_op(key, false, id, reply),
            ClientOp::Read { key } => self.handle_data_op(key, true, id, reply),
            ClientOp::Crash => {
                // Dispatch whatever earlier events in this batch staged
                // *before* the crash wipes volatile state: those
                // actions were produced by a live site, and the merge
                // seals their persist effects first.
                self.merge();
                if !self.down {
                    self.down = true;
                    // The kernels' copy of the set goes with the rest
                    // of their volatile state below.
                    self.set_suspected(SiteSet::EMPTY);
                    self.vote_clock.reset();
                    // Lazy cancellation: already-armed entries become
                    // stale and are skimmed off at the next peek/pop.
                    self.timers.bump_epoch();
                    self.site.crash(&mut self.scratch);
                    // Parked ops die with the site, and so does what it
                    // learned about rivals.
                    self.fail_parked();
                }
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::Recover => {
                self.merge();
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
                    self.merge();
                }
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::SetReachable(set) => {
                // Staged sends were produced under the old topology;
                // let them leave before the partition takes effect.
                self.merge();
                self.reachable = set;
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::Probe { key } => {
                let Some(object) = self.object_for(key, id, &reply) else {
                    return;
                };
                // Seal staged durable ops before announcing state.
                self.merge();
                let shard = self.site.shard(object).expect("validated object");
                reply.send(
                    id,
                    ClientReply::Probe {
                        meta: shard.meta(),
                        locked: shard.is_locked(),
                        in_doubt: shard.is_in_doubt(),
                        down: self.down,
                    },
                );
            }
            ClientOp::Events => {
                // Count what the batch staged before reporting.
                self.merge();
                let counts = self.event_counts.to_vec();
                reply.send(id, ClientReply::Events { counts });
            }
            ClientOp::DumpLog { key } => {
                let Some(object) = self.object_for(key, id, &reply) else {
                    return;
                };
                self.merge();
                let shard = self.site.shard(object).expect("validated object");
                reply.send(
                    id,
                    ClientReply::Log {
                        meta: shard.meta(),
                        entries: shard.log().to_vec(),
                    },
                );
            }
            ClientOp::Status => {
                self.merge();
                let shard = self.site.shard(ObjectId::ZERO).expect("object 0 hosted");
                reply.send(
                    id,
                    ClientReply::Status {
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
                    },
                );
            }
            ClientOp::NetStats => {
                let counts = self
                    .net
                    .as_ref()
                    .map(|stats| stats.snapshot())
                    .unwrap_or_default();
                reply.send(id, ClientReply::NetStats { counts });
            }
            ClientOp::ShardStats => {
                reply.send(
                    id,
                    ClientReply::ShardStats {
                        workers: 1,
                        counts: self.shard_stats.snapshot(),
                    },
                );
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

    pub(crate) fn send(&mut self, to: SiteId, msg: Message) {
        if self.reaches(to) {
            self.transport.send(to, &msg);
        }
    }

    /// Arm one wall-clock deadline. `prepared_rounds` is the shard's
    /// current termination-round count, read by the merge pass. A vote
    /// deadline opens the round on the vote clock and
    /// brings the straggler grace with it, unless the grace would be
    /// the whole deadline anyway.
    pub(crate) fn arm_timer(&mut self, txn: TxnId, kind: TimerKind, prepared_rounds: u32) {
        let now = Instant::now();
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
                let ms = self.config.backoff.delay(prepared_rounds, u);
                Duration::from_secs_f64(ms / 1000.0)
            }
        };
        self.arm_at(now + delay, txn, kind);
    }

    fn arm_at(&mut self, when: Instant, txn: TxnId, kind: TimerKind) {
        let id = self.timers.schedule(when, (txn, kind));
        self.vote_clock.guard(txn, kind, id);
    }

    /// Time until the next protocol deadline or forward deadline: the
    /// longest the host may wait before [`Node::end_batch`] is due
    /// again (`None`: no deadline pending).
    pub(crate) fn next_timer_in(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let protocol = self.timers.next_deadline().copied();
        let next = match (protocol, self.next_forward_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        next.map(|when| when.saturating_duration_since(now))
    }

    /// Fire every due timer on its object's shard; the caller's
    /// [`Node::merge`] collects the results with the batch.
    fn fire_due_timers(&mut self) {
        while let Some((_, (txn, kind))) = self.timers.pop_due(&Instant::now()) {
            if self.down {
                continue;
            }
            self.vote_clock.fired(txn, kind);
            self.step(txn.object, Input::Timer { txn, kind });
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
