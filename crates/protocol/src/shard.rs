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
///
/// A `ShardedSite` owns a **stride** of the site's object space: every
/// object with `object % workers == worker`. A freshly built or
/// restored site is worker 0 of 1 and owns everything;
/// [`ShardedSite::split`] re-groups it into shard-affine pieces that
/// can be driven from different threads with no locking on kernel
/// state. An object a piece does not own is refused (`false` / `None`),
/// never a panic: the owner map is the caller's contract, and a hostile
/// or misrouted frame must not kill a worker thread.
pub struct ShardedSite {
    id: SiteId,
    worker: usize,
    workers: usize,
    /// Objects the whole site hosts, across every piece.
    objects: usize,
    /// The node's peer-suspicion hint, copied onto a shard each time a
    /// message or re-test is routed to it — one word here instead of
    /// one write per hosted object whenever the set changes.
    suspected: SiteSet,
    /// Owned shards in object order: object `o` sits at `o / workers`.
    shards: Vec<SiteActor>,
}

impl std::fmt::Debug for ShardedSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSite")
            .field("id", &self.id)
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("shards", &self.shards.len())
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
        let shards = (0..objects).map(|_| SiteActor::new(id, n, make_algo()));
        Self::whole(id, shards.collect())
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
            .map(|state| SiteActor::restore(id, n, make_algo(), state));
        Self::whole(id, shards.collect())
    }

    /// Worker 0 of 1 over `shards`, numbering them in order.
    fn whole(id: SiteId, mut shards: Vec<SiteActor>) -> Self {
        for (o, shard) in shards.iter_mut().enumerate() {
            shard.set_object(ObjectId(o as u32));
        }
        ShardedSite {
            id,
            worker: 0,
            workers: 1,
            objects: shards.len(),
            suspected: SiteSet::EMPTY,
            shards,
        }
    }

    /// Split the whole site into `workers` shard-affine pieces: piece
    /// `w` owns every object with `object % workers == w`. The static
    /// modulo map means a harness can route any [`TxnId`] to its owning
    /// piece without consulting shared state. Splitting is a pure
    /// re-grouping — no shard is touched — and `split(1)` is the
    /// identity.
    ///
    /// # Panics
    ///
    /// If `workers` is zero, or `self` is already a piece of a split.
    #[must_use]
    pub fn split(self, workers: usize) -> Vec<ShardedSite> {
        assert!(workers >= 1, "at least one piece");
        assert_eq!(self.workers, 1, "only the whole site splits");
        let mut pieces: Vec<ShardedSite> = (0..workers)
            .map(|worker| ShardedSite {
                id: self.id,
                worker,
                workers,
                objects: self.objects,
                suspected: self.suspected,
                shards: Vec::with_capacity(self.objects / workers + 1),
            })
            .collect();
        for (o, shard) in self.shards.into_iter().enumerate() {
            pieces[o % workers].shards.push(shard);
        }
        pieces
    }

    /// The site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// True if this piece owns `object` under the modulo map.
    #[must_use]
    pub fn owns(&self, object: ObjectId) -> bool {
        object.index() < self.objects && object.index() % self.workers == self.worker
    }

    /// One owned object's state machine, or `None` for an object this
    /// piece does not own.
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

    /// Every owned shard with its object id, in object order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &SiteActor)> {
        self.shards.iter().map(|shard| (shard.object(), shard))
    }

    /// Install an [`EventSink`] on every owned shard.
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
        for shard in &mut self.shards {
            shard.set_persistence(make_hook(shard.object()));
        }
    }

    /// Durability barrier across all owned shards (each forwards to its
    /// hook; with a shared store the first call seals the whole
    /// multi-object batch and the rest are no-ops).
    pub fn sync_persistence(&mut self) {
        for shard in &mut self.shards {
            shard.sync_persistence();
        }
    }

    /// Replace the peer-suspicion hint every owned shard sees from its
    /// next routed message on ([`SiteActor::set_suspected`]). One set
    /// per node, shared by all its objects: a peer that went silent on
    /// one object is silent on all of them. This call is the set's only
    /// carrier: the host makes it on every piece whenever the set
    /// changes — no frame brings a copy along — so a piece whose
    /// objects are quiet is never left holding an old set. After the
    /// set *grew* the host also calls [`ShardedSite::suspicion_grew`]
    /// for each round it has open.
    pub fn set_suspected(&mut self, suspected: SiteSet) {
        self.suspected = suspected;
    }

    /// Route a re-test of the early-close rule to `txn`'s shard
    /// ([`SiteActor::suspicion_grew`]).
    pub fn suspicion_grew(&mut self, txn: TxnId, out: &mut ActionSink) -> bool {
        let suspected = self.suspected;
        match self.shard_mut(txn.object) {
            Some(shard) => {
                shard.set_suspected(suspected);
                shard.suspicion_grew(txn, out);
                true
            }
            None => false,
        }
    }

    /// Route a message to its object's shard. Returns `false` (and does
    /// nothing) when this piece does not own the object.
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
    /// Returns `None` when the object is not owned by this piece or the
    /// batch was refused/empty.
    pub fn start_update_batch(
        &mut self,
        object: ObjectId,
        payloads: &[u64],
        out: &mut ActionSink,
    ) -> Option<TxnId> {
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
    use dynvote_core::AlgorithmKind;

    /// Every stride the tests run at: the whole site, an even split,
    /// and one piece per object.
    const STRIDES: [usize; 3] = [1, 2, 7];

    /// A 3-site deployment's site `id`, hosting `objects` objects,
    /// split `workers` ways.
    fn pieces(id: u8, objects: usize, workers: usize) -> Vec<ShardedSite> {
        ShardedSite::new(SiteId(id), 3, objects, || {
            AlgorithmKind::Hybrid.instantiate(3)
        })
        .split(workers)
    }

    /// The piece owning `object` under the modulo map.
    fn owner(pieces: &mut [ShardedSite], object: u32) -> &mut ShardedSite {
        let workers = pieces.len();
        &mut pieces[object as usize % workers]
    }

    fn start(pieces: &mut [ShardedSite], object: u32, payload: u64, out: &mut ActionSink) {
        let started = owner(pieces, object).start_update_batch(ObjectId(object), &[payload], out);
        assert!(started.is_some(), "object {object} refused an update");
    }

    fn is_locked(pieces: &mut [ShardedSite], object: u32) -> bool {
        let shard = owner(pieces, object).shard(ObjectId(object));
        shard.expect("owned object").is_locked()
    }

    fn vote_request(out: &[Action]) -> Message {
        out.iter()
            .find_map(|act| match act {
                Action::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("vote request")
    }

    #[test]
    fn shards_are_independent_lock_domains() {
        for workers in STRIDES {
            let mut s = pieces(0, 7, workers);
            let mut out = Vec::new();
            start(&mut s, 1, 100, &mut out);
            assert!(is_locked(&mut s, 1));
            // A different object's lock is untouched: an update there
            // proceeds instead of resolving LockBusy.
            out.clear();
            start(&mut s, 3, 200, &mut out);
            assert!(matches!(vote_request(&out), Message::VoteRequest { .. }));
            assert!(is_locked(&mut s, 3));
            assert!(!is_locked(&mut s, 0));
        }
    }

    #[test]
    fn fresh_txns_carry_their_shard_object() {
        for workers in STRIDES {
            let mut s = pieces(0, 7, workers);
            let mut out = Vec::new();
            start(&mut s, 2, 7, &mut out);
            assert_eq!(vote_request(&out).txn().object, ObjectId(2));
        }
    }

    #[test]
    fn messages_route_by_object_and_unknown_objects_are_refused() {
        for workers in STRIDES {
            let mut a = pieces(0, 7, workers);
            let mut b = pieces(1, 7, workers);
            let mut out = Vec::new();
            start(&mut a, 1, 42, &mut out);
            let req = vote_request(&out);
            let mut sub_out = Vec::new();
            assert!(owner(&mut b, 1).handle_message(SiteId(0), req, &mut sub_out));
            assert!(is_locked(&mut b, 1));
            assert!(!is_locked(&mut b, 0));
            // An object this site does not host is refused by every
            // piece, not a panic.
            let bogus = Message::VoteRequest {
                txn: TxnId::keyed(SiteId(0), 9, ObjectId(77)),
            };
            for piece in &mut b {
                assert!(!piece.handle_message(SiteId(0), bogus.clone(), &mut sub_out));
            }
        }
    }

    #[test]
    fn crash_clears_every_shard_lock() {
        for workers in STRIDES {
            let mut s = pieces(0, 7, workers);
            let mut out = Vec::new();
            start(&mut s, 0, 1, &mut out);
            start(&mut s, 2, 2, &mut out);
            assert!(s.iter().any(ShardedSite::any_locked));
            for piece in &mut s {
                piece.crash();
            }
            assert!(!s.iter().any(ShardedSite::any_locked));
        }
    }

    #[test]
    fn partitions_cover_every_object_exactly_once() {
        for workers in [1, 2, 3, 4, 7] {
            let parts = pieces(0, 7, workers);
            assert_eq!(parts.len(), workers);
            let mut seen = vec![0u32; 7];
            for (w, part) in parts.iter().enumerate() {
                for (object, shard) in part.iter() {
                    assert!(part.owns(object), "workers={workers} object={object}");
                    assert_eq!(object.index() % workers, w);
                    assert_eq!(shard.object(), object);
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
        let mut parts = pieces(0, 5, 2);
        let mut out = Vec::new();
        // Object 3 belongs to worker 1 under `object % 2`.
        let refused = parts[0].start_update_batch(ObjectId(3), &[9], &mut out);
        assert!(refused.is_none());
        assert!(out.is_empty(), "refused route must stage nothing");
        start(&mut parts, 3, 9, &mut out);
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
        let mut parts = pieces(0, 4, 2);
        let mut out = Vec::new();
        start(&mut parts, 0, 1, &mut out);
        start(&mut parts, 1, 2, &mut out);
        assert!(parts[0].any_locked() && parts[1].any_locked());
        parts[0].crash();
        assert!(!parts[0].any_locked());
        assert!(parts[1].any_locked(), "other partition untouched");
    }

    /// The suspicion hint reaches a shard with the message routed to
    /// it, at every stride: a round whose only silent peer is suspected
    /// closes on the last unsuspected vote instead of waiting out the
    /// deadline — or, when that vote was in before the set grew, on the
    /// re-test.
    #[test]
    fn suspicion_hint_is_stamped_at_every_stride() {
        for workers in STRIDES {
            let mut s = pieces(0, 7, workers);
            let mut out = Vec::new();
            start(&mut s, 3, 1, &mut out);
            let txn = vote_request(&out).txn();
            let piece = owner(&mut s, 3);
            piece.set_suspected(SiteSet::from_bits(0b100));
            out.clear();
            let vote = Message::VoteGranted {
                txn,
                meta: piece.shard(ObjectId(3)).unwrap().meta(),
                from: SiteId(1),
            };
            assert!(piece.handle_message(SiteId(1), vote, &mut out));
            assert!(
                !piece.any_locked(),
                "workers={workers}: round still waits for the suspected peer"
            );
            // The same round with the vote in hand first: nothing closes
            // it until the host re-tests after growing the set.
            out.clear();
            start(&mut s, 3, 3, &mut out);
            let txn = vote_request(&out).txn();
            let piece = owner(&mut s, 3);
            piece.set_suspected(SiteSet::EMPTY);
            let vote = Message::VoteGranted {
                txn,
                meta: piece.shard(ObjectId(3)).unwrap().meta(),
                from: SiteId(1),
            };
            piece.handle_message(SiteId(1), vote, &mut out);
            piece.set_suspected(SiteSet::from_bits(0b100));
            assert!(piece.any_locked(), "setting the hint tests nothing");
            assert!(piece.suspicion_grew(txn, &mut out));
            assert!(!piece.any_locked(), "workers={workers}: re-test");
            // A crash forgets the hint with the rest of volatile state.
            piece.crash();
            out.clear();
            start(&mut s, 3, 2, &mut out);
            let txn = vote_request(&out).txn();
            let piece = owner(&mut s, 3);
            let vote = Message::VoteGranted {
                txn,
                meta: piece.shard(ObjectId(3)).unwrap().meta(),
                from: SiteId(1),
            };
            piece.handle_message(SiteId(1), vote, &mut out);
            assert!(piece.any_locked(), "unsuspected silent peer is waited for");
        }
    }
}
