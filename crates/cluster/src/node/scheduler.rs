//! The scheduler: the node's inbox thread. Blocks on the `mpsc` inbox,
//! classifies each event by `ObjectId`, and hands it to the shard-affine
//! worker owning that object ([`ShardPool::dispatch`] — inline when the
//! pool has one worker). Wall-clock timers, reachability filtering, the
//! crash/recover fault model, and control-plane queries all live here;
//! the kernels themselves only ever run inside workers.

use super::worker::{ShardPool, WorkItem};
use super::{Client, Node, NodeEvent, ReplySink, Route};
use crate::wire::{ClientOp, ClientReply};
use dynvote_core::{SiteId, SiteSet};
use dynvote_protocol::{DurableState, Message, ObjectId, TimerKind, TxnId};
use rand::Rng;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// How many already-queued inbox events one loop iteration may drain
/// behind the blocking receive before timers fire and the transport
/// flushes. Bounded so a message storm cannot starve timers; large
/// enough that a commit fan-in coalesces into one flush.
const INBOX_BATCH: usize = 128;

impl Node {
    /// The event loop: block on the inbox up to the next timer
    /// deadline, drain the burst queued behind the first event
    /// (bounded by [`INBOX_BATCH`]) while the workers run kernels and
    /// **stage** their actions, fire due timers, then [`Node::merge`]
    /// the whole batch behind **one** group-commit barrier and flush
    /// the transport once, repeat until [`NodeEvent::Shutdown`].
    ///
    /// The single barrier + single flush per iteration is what makes
    /// the durable hot path cheap: every WAL op the batch produced —
    /// across every shard and every worker — is sealed by one fsync,
    /// and every frame for one peer leaves in one `write_all`. Idle
    /// timeouts also flush, so nothing lingers buffered when traffic
    /// stops.
    ///
    /// # Panics
    ///
    /// If the worker threads cannot be spawned.
    pub fn run(mut self) {
        let site = self.site.take().expect("site present until run");
        let mut pool = ShardPool::launch(
            self.id,
            site,
            self.shard_threads,
            std::sync::Arc::clone(&self.shard_stats),
            self.max_batch,
        );
        self.resume_in_doubt(&mut pool);
        'outer: loop {
            let timeout = self
                .next_timer_in()
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50));
            match self.rx.recv_timeout(timeout) {
                Ok(NodeEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(event) => {
                    self.handle_event(&mut pool, event);
                    for _ in 1..INBOX_BATCH {
                        match self.rx.try_recv() {
                            Ok(NodeEvent::Shutdown) | Err(TryRecvError::Disconnected) => {
                                break 'outer;
                            }
                            Ok(event) => self.handle_event(&mut pool, event),
                            Err(TryRecvError::Empty) => break,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.fire_due_timers(&mut pool);
            self.expire_forwards();
            // One barrier seals every worker's staged WAL ops, then the
            // staged sends and replies dispatch.
            self.merge(&mut pool);
            // Between batches: rotate the WAL if it has grown past the
            // configured threshold (no-op for amnesiac nodes). Safe
            // here because merge() just drained the pending record.
            self.maybe_rotate(&pool);
            self.transport.flush();
        }
        self.merge(&mut pool);
        self.transport.flush();
        // Ops still parked in per-object FIFOs never started a round;
        // fail them alongside the in-flight ones.
        self.fail_parked(&pool);
        pool.shutdown();
    }

    /// Fail every data-plane op parked anywhere in the node — queued
    /// behind an object's lock, riding a round, or in flight to another
    /// site — with `Down`, each exactly once (crash and shutdown).
    fn fail_parked(&mut self, pool: &ShardPool) {
        let mut parked: Vec<Client> = Vec::new();
        for mut group in pool.lock_groups() {
            parked.extend(group.fail_queued());
        }
        parked.extend(self.pending.drain().flat_map(|(_, clients)| clients));
        for client in parked {
            self.answer(client, ClientReply::Down);
        }
        self.drop_routes();
    }

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
    fn resume_in_doubt(&mut self, pool: &mut ShardPool) {
        if self.durability.is_none() {
            return;
        }
        let mut in_doubt: Vec<ObjectId> = Vec::new();
        for group in pool.lock_groups() {
            in_doubt.extend(
                group
                    .part
                    .iter()
                    .filter(|(_, shard)| shard.is_in_doubt())
                    .map(|(object, _)| object),
            );
        }
        if in_doubt.is_empty() {
            return;
        }
        // Restart payloads are assigned in object order regardless of
        // how the objects are partitioned, keeping the recovery
        // byte-stream independent of the worker count.
        in_doubt.sort_by_key(|object| object.index());
        for object in in_doubt {
            let payload = self.fresh_payload();
            pool.dispatch(WorkItem::Recover { object, payload });
        }
        self.merge(pool);
        self.transport.flush();
    }

    /// Feed one inbox event to the owning worker. Actions are
    /// **staged** in the workers' scratch sinks; nothing is sent or
    /// replied until the batch's [`Node::merge`] — except control and
    /// diagnostic operations, which manage the staging discipline
    /// explicitly (see [`Node::handle_client`]).
    fn handle_event(&mut self, pool: &mut ShardPool, event: NodeEvent) {
        match event {
            NodeEvent::Peer { from, msg } => {
                if self.hears(pool, from) {
                    if let Message::VoteGranted { txn, .. } | Message::VoteBusy { txn, .. } = &msg {
                        self.note_vote(*txn, from);
                    }
                    pool.dispatch(WorkItem::Peer { from, msg });
                }
            }
            NodeEvent::Relay { from, relay } => {
                if self.hears(pool, from) {
                    self.on_relay(pool, from, relay);
                }
            }
            NodeEvent::Client { id, op, reply } => self.handle_client(pool, id, op, reply),
            NodeEvent::Shutdown => {}
        }
    }

    /// Whether a frame from `from` gets through: a crashed site hears
    /// nothing, a partitioned-away sender's frames are dropped at the
    /// boundary, and so is a sender id outside the cluster (the wire
    /// does not bound it).
    fn hears(&mut self, pool: &mut ShardPool, from: SiteId) -> bool {
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
            pool.set_suspected(SiteSet::EMPTY);
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
    fn handle_data_op(
        &mut self,
        pool: &mut ShardPool,
        key: u32,
        read: bool,
        id: u64,
        reply: ReplySink,
    ) {
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
        self.submit(pool, object, client);
    }

    fn handle_client(&mut self, pool: &mut ShardPool, id: u64, op: ClientOp, reply: ReplySink) {
        match op {
            ClientOp::Update { key } => self.handle_data_op(pool, key, false, id, reply),
            ClientOp::Read { key } => self.handle_data_op(pool, key, true, id, reply),
            ClientOp::Crash => {
                // Dispatch whatever earlier events in this batch staged
                // *before* the crash wipes volatile state: those
                // actions were produced by a live site and their
                // durable records are already hooked.
                self.merge(pool);
                if !self.down {
                    self.down = true;
                    // The kernels' copy of the set goes with the rest
                    // of their volatile state below.
                    self.set_suspected(SiteSet::EMPTY);
                    self.vote_clock.reset();
                    // Lazy cancellation: already-armed entries become
                    // stale and are skimmed off at the next peek/pop.
                    self.timers.bump_epoch();
                    for mut group in pool.lock_groups() {
                        group.part.crash();
                    }
                    // Parked ops die with the site, and so does what it
                    // learned about rivals.
                    self.fail_parked(pool);
                }
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::Recover => {
                self.merge(pool);
                if self.down {
                    self.down = false;
                    // A durable site restarts from its disk, not from
                    // whatever this process still holds in memory —
                    // the same code path a genuinely rebooted process
                    // takes.
                    self.reboot_from_disk(pool);
                    for object in 0..self.objects {
                        let object = ObjectId(object as u32);
                        let payload = self.fresh_payload();
                        pool.dispatch(WorkItem::Recover { object, payload });
                    }
                    self.merge(pool);
                }
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::SetReachable(set) => {
                // Staged sends were produced under the old topology;
                // let them leave before the partition takes effect.
                self.merge(pool);
                self.reachable = set;
                reply.send(id, ClientReply::Ok);
            }
            ClientOp::Probe { key } => {
                let Some(object) = self.object_for(key, id, &reply) else {
                    return;
                };
                // Seal staged durable ops before announcing state.
                self.merge(pool);
                let groups = pool.lock_groups();
                let shard = groups[pool.owner_of(object)]
                    .part
                    .shard(object)
                    .expect("validated object");
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
                let counts = self
                    .events
                    .as_ref()
                    .map(|sink| sink.tallies().row(self.id).to_vec())
                    .unwrap_or_default();
                reply.send(id, ClientReply::Events { counts });
            }
            ClientOp::Audit => {
                self.merge(pool);
                let groups = pool.lock_groups();
                // Consistency seen from this node: every shard's log is
                // a gapless prefix of its object's chain AND no commit
                // anywhere was flagged divergent — so remote auditors
                // (the loadgen CLI) learn about ledger violations too.
                let consistent = self.ledger.violations().is_empty()
                    && (0..self.objects).all(|o| {
                        let object = ObjectId(o as u32);
                        let shard = groups[pool.owner_of(object)]
                            .part
                            .shard(object)
                            .expect("hosted object");
                        self.ledger
                            .check_log(object, shard.log(), shard.meta().version)
                    });
                let log_len: u64 = groups
                    .iter()
                    .flat_map(|g| g.part.iter())
                    .map(|(_, shard)| shard.log().len() as u64)
                    .sum();
                reply.send(
                    id,
                    ClientReply::Audit {
                        commits: self.commits,
                        log_len,
                        consistent,
                    },
                );
            }
            ClientOp::DumpLog { key } => {
                let Some(object) = self.object_for(key, id, &reply) else {
                    return;
                };
                self.merge(pool);
                let groups = pool.lock_groups();
                let shard = groups[pool.owner_of(object)]
                    .part
                    .shard(object)
                    .expect("validated object");
                reply.send(
                    id,
                    ClientReply::Log {
                        meta: shard.meta(),
                        entries: shard.log().to_vec(),
                    },
                );
            }
            ClientOp::Status => {
                self.merge(pool);
                let groups = pool.lock_groups();
                let shard = groups[pool.owner_of(ObjectId::ZERO)]
                    .part
                    .shard(ObjectId::ZERO)
                    .expect("object 0 hosted");
                let log_len: u64 = groups
                    .iter()
                    .flat_map(|g| g.part.iter())
                    .map(|(_, s)| s.log().len() as u64)
                    .sum();
                reply.send(
                    id,
                    ClientReply::Status {
                        algorithm: self.algorithm.to_string(),
                        objects: self.objects as u32,
                        meta: shard.meta(),
                        reachable: self.reachable,
                        locked: groups.iter().any(|g| g.part.any_locked()),
                        in_doubt: groups.iter().any(|g| g.part.any_in_doubt()),
                        down: self.down,
                        log_len,
                        commits: self.commits,
                        wal_epoch: shard.wal_epoch(),
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
                        workers: pool.workers() as u32,
                        counts: self.shard_stats.snapshot(),
                    },
                );
            }
        }
    }

    /// Rebuild the kernels from what the data directory says,
    /// discarding process memory — the in-process stand-in for a
    /// machine reboot — and install the restored partitions into the
    /// (already idle and merged) worker pool. Under a group-commit
    /// fsync policy this honestly loses whatever the store had not yet
    /// synced.
    ///
    /// # Panics
    ///
    /// On I/O failure, matching the store's own hook discipline: a
    /// durable site that cannot read its own disk cannot rejoin.
    /// Corrupt or torn files do **not** panic — recovery truncates and
    /// reports.
    fn reboot_from_disk(&mut self, pool: &mut ShardPool) {
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
        pool.install(self.site.take().expect("site just restored"));
    }

    /// Rotate the shared WAL into a fresh epoch behind a node-wide
    /// snapshot of every shard's durable state, when it has grown past
    /// the configured threshold. Called right after [`Node::merge`], so
    /// the pending group-commit record is empty and the snapshot is a
    /// consistent cut across all objects.
    fn maybe_rotate(&mut self, pool: &ShardPool) {
        let Some(core) = self.store.clone() else {
            return;
        };
        if !core.lock().expect("store poisoned").wants_rotation() {
            return;
        }
        let groups = pool.lock_groups();
        let states: Vec<DurableState> = (0..self.objects)
            .map(|o| {
                let object = ObjectId(o as u32);
                groups[pool.owner_of(object)]
                    .part
                    .shard(object)
                    .expect("hosted object")
                    .durable()
                    .clone()
            })
            .collect();
        drop(groups);
        let outcome = core.lock().expect("store poisoned").rotate(&states);
        if let Err(err) = outcome {
            // Rotation is an optimization; a failed attempt leaves the
            // old epoch intact and will be retried next batch.
            eprintln!("site {}: WAL rotation failed: {err}", self.id);
        }
    }

    /// Replace the scheduler's copy of the peer-suspicion set, keeping
    /// its published gauge in step. The kernels learn of a change from
    /// [`ShardPool::set_suspected`] and nowhere else.
    pub(crate) fn set_suspected(&mut self, suspected: SiteSet) {
        self.suspected = suspected;
        self.shard_stats.note_suspected(suspected);
    }

    /// The set grew: hand it to every worker and have each round this
    /// node has open re-tested against it — a round whose live votes
    /// were all in hand before the set grew never sees another vote.
    /// The re-tests stage their actions like any other work item; the
    /// caller merges again to collect them.
    pub(super) fn push_suspicion(&mut self, pool: &mut ShardPool) {
        pool.set_suspected(self.suspected);
        for &txn in self.pending.keys().chain(&self.restart_txns) {
            pool.dispatch(WorkItem::SuspicionGrew { txn });
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
    /// current termination-round count, read by the merge pass while it
    /// holds the group locks (the scheduler itself never touches
    /// kernels). A vote deadline opens the round on the vote clock and
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

    /// Time until the next protocol deadline or forward deadline.
    fn next_timer_in(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let protocol = self.timers.next_deadline().copied();
        let next = match (protocol, self.next_forward_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        next.map(|when| when.saturating_duration_since(now))
    }

    /// Fire every due timer, dispatching each to its object's worker;
    /// the caller's [`Node::merge`] collects the results with the
    /// batch.
    fn fire_due_timers(&mut self, pool: &mut ShardPool) {
        while let Some((_, (txn, kind))) = self.timers.pop_due(&Instant::now()) {
            if self.down {
                continue;
            }
            self.vote_clock.fired(txn, kind);
            pool.dispatch(WorkItem::Timer { txn, kind });
        }
    }

    /// A cluster-unique payload: site in the top bits, a local counter
    /// below, so divergence checks can attribute every committed value.
    /// Assigned by the scheduler at classification time — in arrival
    /// order, independent of the worker count — which is one leg of the
    /// determinism contract.
    pub(super) fn fresh_payload(&mut self) -> u64 {
        self.payload_seq += 1;
        ((u64::from(self.id.0) + 1) << 48) | self.payload_seq
    }
}
