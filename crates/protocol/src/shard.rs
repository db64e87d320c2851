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
/// An object the site does not host is refused (`false` / `None`),
/// never a panic: a hostile frame must not kill the node thread.
pub struct ShardedSite {
    id: SiteId,
    /// The node's peer-suspicion hint, copied onto a shard each time a
    /// message or re-test is routed to it — one word here instead of
    /// one write per hosted object whenever the set changes.
    suspected: SiteSet,
    /// One shard per object, in object order.
    shards: Vec<SiteActor>,
}

impl std::fmt::Debug for ShardedSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSite")
            .field("id", &self.id)
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
        Self::numbered(id, shards.collect())
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
        Self::numbered(id, shards.collect())
    }

    /// The site over `shards`, numbering them in order.
    fn numbered(id: SiteId, mut shards: Vec<SiteActor>) -> Self {
        for (o, shard) in shards.iter_mut().enumerate() {
            shard.set_object(ObjectId(o as u32));
        }
        ShardedSite {
            id,
            suspected: SiteSet::EMPTY,
            shards,
        }
    }

    /// The site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// One object's state machine, or `None` for an object this site
    /// does not host.
    #[must_use]
    pub fn shard(&self, object: ObjectId) -> Option<&SiteActor> {
        self.shards.get(object.index())
    }

    /// One object's state machine, mutably.
    pub fn shard_mut(&mut self, object: ObjectId) -> Option<&mut SiteActor> {
        self.shards.get_mut(object.index())
    }

    /// Every shard with its object id, in object order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &SiteActor)> {
        self.shards.iter().map(|shard| (shard.object(), shard))
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
        for shard in &mut self.shards {
            shard.set_persistence(make_hook(shard.object()));
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

    /// Replace the peer-suspicion hint every shard sees from its next
    /// routed message on ([`SiteActor::set_suspected`]). One set per
    /// node, shared by all its objects: a peer that went silent on one
    /// object is silent on all of them. This call is the set's only
    /// carrier — no frame brings a copy along. After the set *grew* the
    /// host also calls [`ShardedSite::suspicion_grew`] for each round it
    /// has open.
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
    /// nothing) when the site does not host the object.
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

    /// Start a read on one object.
    pub fn start_read(&mut self, object: ObjectId, out: &mut ActionSink) -> bool {
        match self.shard_mut(object) {
            Some(shard) => {
                shard.start_read(out);
                true
            }
            None => false,
        }
    }

    /// Commit pipelining: seal a payload batch on one object with
    /// a single quorum round ([`SiteActor::start_update_batch`]).
    /// Returns `None` when the site does not host the object or the
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

    /// Run the `Make_Current` restart protocol on one object.
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

    /// Crash every shard (volatile state lost — the suspicion
    /// hint with it — durable records kept).
    pub fn crash(&mut self) {
        self.suspected = SiteSet::EMPTY;
        for shard in &mut self.shards {
            shard.crash();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Action;
    use dynvote_core::AlgorithmKind;

    /// A 3-site deployment's site `id`, hosting `objects` objects.
    fn site(id: u8, objects: usize) -> ShardedSite {
        ShardedSite::new(SiteId(id), 3, objects, || {
            AlgorithmKind::Hybrid.instantiate(3)
        })
    }

    fn start(s: &mut ShardedSite, object: u32, payload: u64, out: &mut ActionSink) {
        let started = s.start_update_batch(ObjectId(object), &[payload], out);
        assert!(started.is_some(), "object {object} refused an update");
    }

    fn is_locked(s: &ShardedSite, object: u32) -> bool {
        s.shard(ObjectId(object))
            .expect("hosted object")
            .is_locked()
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
        let mut s = site(0, 7);
        let mut out = Vec::new();
        start(&mut s, 1, 100, &mut out);
        assert!(is_locked(&s, 1));
        // A different object's lock is untouched: an update there
        // proceeds instead of resolving LockBusy.
        out.clear();
        start(&mut s, 3, 200, &mut out);
        assert!(matches!(vote_request(&out), Message::VoteRequest { .. }));
        assert!(is_locked(&s, 3));
        assert!(!is_locked(&s, 0));
    }

    #[test]
    fn fresh_txns_carry_their_shard_object() {
        let mut s = site(0, 7);
        let mut out = Vec::new();
        start(&mut s, 2, 7, &mut out);
        assert_eq!(vote_request(&out).txn().object, ObjectId(2));
    }

    #[test]
    fn messages_route_by_object_and_unknown_objects_are_refused() {
        let mut a = site(0, 7);
        let mut b = site(1, 7);
        let mut out = Vec::new();
        start(&mut a, 1, 42, &mut out);
        let req = vote_request(&out);
        let mut sub_out = Vec::new();
        assert!(b.handle_message(SiteId(0), req, &mut sub_out));
        assert!(is_locked(&b, 1));
        assert!(!is_locked(&b, 0));
        // An object this site does not host is refused, not a panic,
        // and stages nothing.
        sub_out.clear();
        let bogus = Message::VoteRequest {
            txn: TxnId::keyed(SiteId(0), 9, ObjectId(77)),
        };
        assert!(!b.handle_message(SiteId(0), bogus, &mut sub_out));
        assert!(b
            .start_update_batch(ObjectId(7), &[9], &mut sub_out)
            .is_none());
        assert!(sub_out.is_empty(), "a refused route must stage nothing");
    }

    #[test]
    fn crash_clears_every_shard_lock() {
        let mut s = site(0, 7);
        let mut out = Vec::new();
        start(&mut s, 0, 1, &mut out);
        start(&mut s, 2, 2, &mut out);
        assert!(s.any_locked());
        s.crash();
        assert!(!s.any_locked());
    }

    /// The suspicion hint reaches a shard with the message routed to
    /// it: a round whose only silent peer is suspected closes on the
    /// last unsuspected vote instead of waiting out the deadline — or,
    /// when that vote was in before the set grew, on the re-test.
    #[test]
    fn suspicion_hint_is_stamped_at_every_stride() {
        let mut s = site(0, 7);
        let mut out = Vec::new();
        start(&mut s, 3, 1, &mut out);
        let txn = vote_request(&out).txn();
        s.set_suspected(SiteSet::from_bits(0b100));
        out.clear();
        let vote = Message::VoteGranted {
            txn,
            meta: s.shard(ObjectId(3)).unwrap().meta(),
            from: SiteId(1),
        };
        assert!(s.handle_message(SiteId(1), vote, &mut out));
        assert!(!s.any_locked(), "round still waits for the suspected peer");
        // The same round with the vote in hand first: nothing closes
        // it until the host re-tests after growing the set.
        out.clear();
        start(&mut s, 3, 3, &mut out);
        let txn = vote_request(&out).txn();
        s.set_suspected(SiteSet::EMPTY);
        let vote = Message::VoteGranted {
            txn,
            meta: s.shard(ObjectId(3)).unwrap().meta(),
            from: SiteId(1),
        };
        s.handle_message(SiteId(1), vote, &mut out);
        s.set_suspected(SiteSet::from_bits(0b100));
        assert!(s.any_locked(), "setting the hint tests nothing");
        assert!(s.suspicion_grew(txn, &mut out));
        assert!(!s.any_locked(), "re-test");
        // A crash forgets the hint with the rest of volatile state.
        s.crash();
        out.clear();
        start(&mut s, 3, 2, &mut out);
        let txn = vote_request(&out).txn();
        let vote = Message::VoteGranted {
            txn,
            meta: s.shard(ObjectId(3)).unwrap().meta(),
            from: SiteId(1),
        };
        s.handle_message(SiteId(1), vote, &mut out);
        assert!(s.any_locked(), "unsuspected silent peer is waited for");
    }
}
