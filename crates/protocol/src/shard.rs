//! A sharded multi-object site: many independent [`SiteActor`] state
//! machines behind one router.
//!
//! The paper's protocol governs a single replicated file; a production
//! data plane hosts millions of keys. [`ShardedSite`] is the protocol
//! layer's answer: one [`SiteActor`] per [`ObjectId`], each owning its
//! own `(VN, SC, DS)` triple, commit chain, lock, and prepare record.
//! Because every [`TxnId`] carries its object, routing is a vector
//! index — messages, timers, and client requests all dispatch to their
//! shard in O(1), and transactions on different objects never contend
//! (shard-local locking).
//!
//! The router is still sans-IO: it owns no clock and no socket, and
//! every entry point appends [`Action`](crate::Action)s to a
//! caller-owned sink exactly like the single-object kernel. Harnesses
//! that batch many shards' steps between two durability barriers get
//! group commit for free: the [`Persistence`](crate::Persistence) hooks
//! of all shards buffer into one store, and a single barrier seals the
//! whole multi-object batch.

use crate::event::EventSink;
use crate::message::{Message, ObjectId, TxnId};
use crate::persist::Persistence;
use crate::site::{ActionSink, DurableState, SiteActor, TimerKind};
use dynvote_core::{ReplicaControl, SiteId, SiteSet};
use std::sync::Arc;

/// One site's shard map: an independent protocol state machine per
/// object, with O(1) routing by the object carried in every [`TxnId`].
pub struct ShardedSite {
    id: SiteId,
    n: usize,
    shards: Vec<SiteActor>,
}

impl std::fmt::Debug for ShardedSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSite")
            .field("id", &self.id)
            .field("objects", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedSite {
    /// A fresh site hosting `objects` independent state machines, each
    /// built with its own replica-control instance from `make_algo`.
    #[must_use]
    pub fn new<F>(id: SiteId, n: usize, objects: usize, mut make_algo: F) -> Self
    where
        F: FnMut() -> Box<dyn ReplicaControl>,
    {
        assert!(objects >= 1, "a site hosts at least one object");
        let shards = (0..objects)
            .map(|o| {
                let mut actor = SiteActor::new(id, n, make_algo());
                actor.set_object(ObjectId(o as u32));
                actor
            })
            .collect();
        ShardedSite { id, n, shards }
    }

    /// A site rebuilt from per-object recovered durable states — the
    /// multi-object Section V-C restart path. `states[o]` becomes
    /// object `o`'s state.
    #[must_use]
    pub fn restore<F>(id: SiteId, n: usize, states: Vec<DurableState>, mut make_algo: F) -> Self
    where
        F: FnMut() -> Box<dyn ReplicaControl>,
    {
        assert!(!states.is_empty(), "a site hosts at least one object");
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(o, state)| {
                let mut actor = SiteActor::restore(id, n, make_algo(), state);
                actor.set_object(ObjectId(o as u32));
                actor
            })
            .collect();
        ShardedSite { id, n, shards }
    }

    /// The site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Number of sites in the deployment.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of objects hosted.
    #[must_use]
    pub fn objects(&self) -> usize {
        self.shards.len()
    }

    /// One object's state machine, if hosted here.
    #[must_use]
    pub fn shard(&self, object: ObjectId) -> Option<&SiteActor> {
        self.shards.get(object.index())
    }

    /// One object's state machine, mutably.
    pub fn shard_mut(&mut self, object: ObjectId) -> Option<&mut SiteActor> {
        self.shards.get_mut(object.index())
    }

    /// Every shard, in object order.
    pub fn iter(&self) -> impl Iterator<Item = &SiteActor> {
        self.shards.iter()
    }

    /// Every shard, mutably, in object order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut SiteActor> {
        self.shards.iter_mut()
    }

    /// Install an [`EventSink`] on every shard.
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        for shard in &mut self.shards {
            shard.set_sink(Arc::clone(&sink));
        }
    }

    /// Install a per-shard [`Persistence`] hook built by `make_hook`
    /// (typically a keyed handle onto one shared store).
    pub fn set_persistence<F>(&mut self, mut make_hook: F)
    where
        F: FnMut(ObjectId) -> Box<dyn Persistence + Send>,
    {
        for (o, shard) in self.shards.iter_mut().enumerate() {
            shard.set_persistence(make_hook(ObjectId(o as u32)));
        }
    }

    /// Route a message to its object's shard. Returns `false` (and does
    /// nothing) when the object is not hosted here — a hostile or
    /// misrouted frame must not panic the node.
    pub fn handle_message(&mut self, from: SiteId, msg: Message, out: &mut ActionSink) -> bool {
        let object = msg.txn().object;
        match self.shards.get_mut(object.index()) {
            Some(shard) => {
                shard.handle_message(from, msg, out);
                true
            }
            None => false,
        }
    }

    /// Route a timer to its object's shard.
    pub fn timer_fired(&mut self, txn: TxnId, kind: TimerKind, out: &mut ActionSink) -> bool {
        match self.shards.get_mut(txn.object.index()) {
            Some(shard) => {
                shard.timer_fired(txn, kind, out);
                true
            }
            None => false,
        }
    }

    /// Start an update on one object. Returns `false` when the object
    /// is not hosted here.
    pub fn start_update(&mut self, object: ObjectId, payload: u64, out: &mut ActionSink) -> bool {
        match self.shards.get_mut(object.index()) {
            Some(shard) => {
                shard.start_update(payload, out);
                true
            }
            None => false,
        }
    }

    /// Start a read on one object. Returns `false` when the object is
    /// not hosted here.
    pub fn start_read(&mut self, object: ObjectId, out: &mut ActionSink) -> bool {
        match self.shards.get_mut(object.index()) {
            Some(shard) => {
                shard.start_read(out);
                true
            }
            None => false,
        }
    }

    /// Commit pipelining: seal a payload batch on one object with a
    /// single quorum round ([`SiteActor::start_update_batch`]). Returns
    /// `None` when the object is not hosted here or the batch was
    /// refused/empty.
    pub fn start_update_batch(
        &mut self,
        object: ObjectId,
        payloads: &[u64],
        out: &mut ActionSink,
    ) -> Option<crate::TxnId> {
        self.shards
            .get_mut(object.index())
            .and_then(|shard| shard.start_update_batch(payloads, out))
    }

    /// Crash every shard (volatile state lost; durable records kept).
    pub fn crash(&mut self) {
        for shard in &mut self.shards {
            shard.crash();
        }
    }

    /// Durability barrier across all shards (each forwards to its
    /// hook; with a shared store the first call seals the whole
    /// multi-object batch and the rest are no-ops).
    pub fn sync_persistence(&mut self) {
        for shard in &mut self.shards {
            shard.sync_persistence();
        }
    }

    /// True if any shard's lock is currently held.
    #[must_use]
    pub fn any_locked(&self) -> bool {
        self.shards.iter().any(SiteActor::is_locked)
    }

    /// True if any shard holds a durable prepare record.
    #[must_use]
    pub fn any_in_doubt(&self) -> bool {
        self.shards.iter().any(SiteActor::is_in_doubt)
    }

    /// Split the site into `workers` shard-affine partitions: partition
    /// `w` owns every object with `object % workers == w`. The static
    /// modulo map means a harness can route any [`TxnId`] to its owning
    /// partition without consulting shared state, and because each
    /// [`SiteActor`] moves into exactly one partition, the partitions
    /// can be driven from different threads with no locking on kernel
    /// state. Partitioning is a pure re-grouping — no shard is touched,
    /// so a site can be partitioned and (conceptually) reassembled at
    /// any quiescent point.
    ///
    /// # Panics
    ///
    /// If `workers` is zero.
    #[must_use]
    pub fn into_partitions(self, workers: usize) -> Vec<ShardPartition> {
        assert!(workers >= 1, "at least one partition");
        let ShardedSite { id, n, shards } = self;
        let objects = shards.len();
        let mut parts: Vec<ShardPartition> = (0..workers)
            .map(|worker| ShardPartition {
                id,
                n,
                worker,
                workers,
                objects,
                suspected: SiteSet::EMPTY,
                shards: Vec::with_capacity(objects / workers + 1),
            })
            .collect();
        for (o, shard) in shards.into_iter().enumerate() {
            parts[o % workers].shards.push(shard);
        }
        parts
    }
}

/// One worker's shard-affine slice of a [`ShardedSite`]: the shards
/// with `object % workers == worker`, produced by
/// [`ShardedSite::into_partitions`]. Routing stays O(1) — the local
/// index of object `o` is `o / workers` — and every entry point keeps
/// the sans-IO sink discipline of the full router. An object the
/// partition does not own is refused (`false` / `None`), never a
/// panic: the owner map is the caller's contract, and a misrouted
/// message must not kill a worker thread.
pub struct ShardPartition {
    id: SiteId,
    n: usize,
    worker: usize,
    workers: usize,
    objects: usize,
    /// The node's peer-suspicion hint, stamped on a shard each time a
    /// message is routed to it — one word here instead of one write per
    /// hosted object whenever the set changes.
    suspected: SiteSet,
    shards: Vec<SiteActor>,
}

impl std::fmt::Debug for ShardPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPartition")
            .field("id", &self.id)
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardPartition {
    /// The site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Number of sites in the deployment.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// This partition's index in the owner map.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total number of partitions the site was split into.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True if this partition owns `object` under the modulo map.
    #[must_use]
    pub fn owns(&self, object: ObjectId) -> bool {
        object.index() < self.objects && object.index() % self.workers == self.worker
    }

    /// One owned object's state machine, or `None` for an object this
    /// partition does not own.
    #[must_use]
    pub fn shard(&self, object: ObjectId) -> Option<&SiteActor> {
        if self.owns(object) {
            self.shards.get(object.index() / self.workers)
        } else {
            None
        }
    }

    /// One owned object's state machine, mutably.
    pub fn shard_mut(&mut self, object: ObjectId) -> Option<&mut SiteActor> {
        if self.owns(object) {
            self.shards.get_mut(object.index() / self.workers)
        } else {
            None
        }
    }

    /// Every owned shard with its global object id, in object order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &SiteActor)> {
        let (worker, workers) = (self.worker, self.workers);
        self.shards
            .iter()
            .enumerate()
            .map(move |(l, shard)| (ObjectId((l * workers + worker) as u32), shard))
    }

    /// Replace the peer-suspicion hint every owned shard sees from its
    /// next routed message on ([`SiteActor::set_suspected`]). One set
    /// per node, shared by all its objects: a peer that went silent on
    /// one object is silent on all of them.
    pub fn set_suspected(&mut self, suspected: SiteSet) {
        self.suspected = suspected;
    }

    /// Route a message to its object's shard. Returns `false` when this
    /// partition does not own the object.
    pub fn handle_message(&mut self, from: SiteId, msg: Message, out: &mut ActionSink) -> bool {
        let object = msg.txn().object;
        let suspected = self.suspected;
        match self.shard_mut(object) {
            Some(shard) => {
                shard.set_suspected(suspected);
                shard.handle_message(from, msg, out);
                true
            }
            None => false,
        }
    }

    /// Route a timer to its object's shard.
    pub fn timer_fired(&mut self, txn: TxnId, kind: TimerKind, out: &mut ActionSink) -> bool {
        match self.shard_mut(txn.object) {
            Some(shard) => {
                shard.timer_fired(txn, kind, out);
                true
            }
            None => false,
        }
    }

    /// Start an update on one owned object.
    pub fn start_update(&mut self, object: ObjectId, payload: u64, out: &mut ActionSink) -> bool {
        match self.shard_mut(object) {
            Some(shard) => {
                shard.start_update(payload, out);
                true
            }
            None => false,
        }
    }

    /// Start a read on one owned object.
    pub fn start_read(&mut self, object: ObjectId, out: &mut ActionSink) -> bool {
        match self.shard_mut(object) {
            Some(shard) => {
                shard.start_read(out);
                true
            }
            None => false,
        }
    }

    /// Commit pipelining: seal a payload batch on one owned object with
    /// a single quorum round ([`SiteActor::start_update_batch`]).
    /// Returns `None` when the object is not owned by this partition or
    /// the batch was refused/empty.
    pub fn start_update_batch(
        &mut self,
        object: ObjectId,
        payloads: &[u64],
        out: &mut ActionSink,
    ) -> Option<crate::TxnId> {
        self.shard_mut(object)
            .and_then(|shard| shard.start_update_batch(payloads, out))
    }

    /// Run the `Make_Current` restart protocol on one owned object.
    pub fn recover(
        &mut self,
        object: ObjectId,
        restart_payload: u64,
        out: &mut ActionSink,
    ) -> bool {
        match self.shard_mut(object) {
            Some(shard) => {
                shard.recover(restart_payload, out);
                true
            }
            None => false,
        }
    }

    /// Crash every owned shard (volatile state lost — the suspicion
    /// hint with it — durable records kept).
    pub fn crash(&mut self) {
        self.suspected = SiteSet::EMPTY;
        for shard in &mut self.shards {
            shard.crash();
        }
    }

    /// True if any owned shard's lock is currently held.
    #[must_use]
    pub fn any_locked(&self) -> bool {
        self.shards.iter().any(SiteActor::is_locked)
    }

    /// True if any owned shard holds a durable prepare record.
    #[must_use]
    pub fn any_in_doubt(&self) -> bool {
        self.shards.iter().any(SiteActor::is_in_doubt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Action;
    use crate::Message;
    use dynvote_core::AlgorithmKind;

    fn sharded(id: u8, n: usize, objects: usize) -> ShardedSite {
        ShardedSite::new(SiteId(id), n, objects, || {
            AlgorithmKind::Hybrid.instantiate(n)
        })
    }

    #[test]
    fn shards_are_independent_lock_domains() {
        let mut s = sharded(0, 3, 4);
        let mut out = Vec::new();
        assert!(s.start_update(ObjectId(1), 100, &mut out));
        assert!(s.shard(ObjectId(1)).unwrap().is_locked());
        // A different object's lock is untouched: an update there
        // proceeds instead of resolving LockBusy.
        out.clear();
        assert!(s.start_update(ObjectId(3), 200, &mut out));
        assert!(matches!(
            &out[0],
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        ));
        assert!(s.shard(ObjectId(3)).unwrap().is_locked());
        assert!(!s.shard(ObjectId(0)).unwrap().is_locked());
    }

    #[test]
    fn fresh_txns_carry_their_shard_object() {
        let mut s = sharded(0, 3, 3);
        let mut out = Vec::new();
        s.start_update(ObjectId(2), 7, &mut out);
        let Action::Broadcast {
            msg: Message::VoteRequest { txn },
        } = &out[0]
        else {
            panic!("expected vote request, got {out:?}");
        };
        assert_eq!(txn.object, ObjectId(2));
    }

    #[test]
    fn messages_route_by_object_and_unknown_objects_are_refused() {
        let mut a = sharded(0, 3, 2);
        let mut b = sharded(1, 3, 2);
        let mut out = Vec::new();
        a.start_update(ObjectId(1), 42, &mut out);
        let req = out
            .iter()
            .find_map(|act| match act {
                Action::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("vote request");
        let mut sub_out = Vec::new();
        assert!(b.handle_message(SiteId(0), req, &mut sub_out));
        assert!(b.shard(ObjectId(1)).unwrap().is_locked());
        assert!(!b.shard(ObjectId(0)).unwrap().is_locked());
        // An object this site does not host is refused, not a panic.
        let bogus = Message::VoteRequest {
            txn: TxnId::keyed(SiteId(0), 9, ObjectId(77)),
        };
        assert!(!b.handle_message(SiteId(0), bogus, &mut sub_out));
    }

    #[test]
    fn crash_clears_every_shard_lock() {
        let mut s = sharded(0, 3, 3);
        let mut out = Vec::new();
        s.start_update(ObjectId(0), 1, &mut out);
        s.start_update(ObjectId(2), 2, &mut out);
        assert!(s.any_locked());
        s.crash();
        assert!(!s.any_locked());
    }

    #[test]
    fn partitions_cover_every_object_exactly_once() {
        for workers in [1, 2, 3, 4, 7] {
            let parts = sharded(0, 3, 7).into_partitions(workers);
            assert_eq!(parts.len(), workers);
            let mut seen = vec![0u32; 7];
            for (w, part) in parts.iter().enumerate() {
                assert_eq!(part.worker(), w);
                assert_eq!(part.workers(), workers);
                for (object, shard) in part.iter() {
                    assert!(part.owns(object), "workers={workers} object={object}");
                    assert_eq!(object.index() % workers, w);
                    assert_eq!(shard.meta().version, 0);
                    seen[object.index()] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "workers={workers}: coverage {seen:?}"
            );
        }
    }

    #[test]
    fn partition_routing_matches_ownership() {
        let mut parts = sharded(0, 3, 5).into_partitions(2);
        let mut out = Vec::new();
        // Object 3 belongs to worker 1 under `object % 2`.
        assert!(!parts[0].start_update(ObjectId(3), 9, &mut out));
        assert!(out.is_empty(), "refused route must stage nothing");
        assert!(parts[1].start_update(ObjectId(3), 9, &mut out));
        assert!(parts[1].shard(ObjectId(3)).unwrap().is_locked());
        assert!(parts[0].shard(ObjectId(3)).is_none());
        // Misrouted peer frames are refused, not panicked on.
        let bogus = Message::VoteRequest {
            txn: TxnId::keyed(SiteId(1), 1, ObjectId(4)),
        };
        assert!(!parts[1].handle_message(SiteId(1), bogus.clone(), &mut out));
        assert!(parts[0].handle_message(SiteId(1), bogus, &mut out));
        // Out-of-range objects are owned by nobody.
        assert!(!parts[0].owns(ObjectId(6)));
        assert!(!parts[1].owns(ObjectId(6)));
    }

    #[test]
    fn partition_crash_is_local_to_owned_shards() {
        let mut parts = sharded(0, 3, 4).into_partitions(2);
        let mut out = Vec::new();
        parts[0].start_update(ObjectId(0), 1, &mut out);
        parts[1].start_update(ObjectId(1), 2, &mut out);
        assert!(parts[0].any_locked() && parts[1].any_locked());
        parts[0].crash();
        assert!(!parts[0].any_locked());
        assert!(parts[1].any_locked(), "other partition untouched");
    }
}
