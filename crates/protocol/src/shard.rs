//! A sharded multi-object site: many independent [`SiteActor`] state
//! machines behind one router.
//!
//! The paper's protocol governs a single replicated file; a production
//! data plane hosts millions of keys. [`ShardedSite`] is the protocol
//! layer's answer: one [`SiteActor`] per [`ObjectId`], each owning its
//! own `(VN, SC, DS)` triple, commit chain, lock, and prepare record.
//! Because every [`TxnId`] carries its object, routing is a vector
//! index: [`ShardedSite::step`] takes an object and one
//! [`Input`](crate::Input) and steps that shard in O(1), and
//! transactions on different objects never contend (shard-local
//! locking).
//!
//! The router is still sans-IO: it owns no clock and no socket, and
//! it appends [`Action`](crate::Action)s to a caller-owned sink exactly
//! like the single-object kernel. Harnesses that batch many shards'
//! steps between two durability barriers get group commit for free:
//! every shard's [`Action::Persist`](crate::Action) effects land in the
//! one sink, each stamped with its object, and a single barrier seals
//! the whole multi-object batch.

use crate::message::{ObjectId, TxnId};
use crate::site::{ActionSink, DurableState, Input, SiteActor};
use dynvote_core::{ReplicaControl, SiteId, SiteSet};

/// One site's shard map: an independent protocol state machine per
/// object, with O(1) routing by the object carried in every [`TxnId`].
///
/// An object the site does not host is refused (`None`, nothing
/// emitted), never a panic: a hostile frame must not kill the node
/// thread.
pub struct ShardedSite {
    id: SiteId,
    /// The node's peer-suspicion hint, copied onto a shard each time
    /// it steps — one word here instead of one write per hosted object
    /// whenever the set changes.
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
    pub fn new<F>(id: SiteId, n: usize, objects: usize, make_algo: F) -> Self
    where
        F: FnMut() -> Box<dyn ReplicaControl>,
    {
        Self::restore(id, n, vec![DurableState::initial(n); objects], make_algo)
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
        let shards = states.into_iter().enumerate().map(|(o, state)| {
            let mut shard = SiteActor::restore(id, n, make_algo(), state);
            shard.set_object(ObjectId(o as u32));
            shard
        });
        ShardedSite {
            id,
            suspected: SiteSet::EMPTY,
            shards: shards.collect(),
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

    /// Every shard with its object id, in object order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ObjectId, &SiteActor)> {
        self.shards.iter().map(|shard| (shard.object(), shard))
    }

    /// Replace the peer-suspicion hint every shard sees from its next
    /// step on ([`SiteActor::set_suspected`]). One set per node, shared
    /// by all its objects: a peer that went silent on one object is
    /// silent on all of them. This call is the set's only carrier — no
    /// frame brings a copy along. After the set *grew* the host also
    /// steps [`Input::SuspicionGrew`] for each round it has open.
    pub fn set_suspected(&mut self, suspected: SiteSet) {
        self.suspected = suspected;
    }

    /// Step `object`'s shard ([`SiteActor::step`]) with the site's
    /// suspicion hint copied onto it first. An object this site does
    /// not host returns `None` and emits nothing.
    pub fn step(
        &mut self,
        object: ObjectId,
        input: Input<'_>,
        out: &mut ActionSink,
    ) -> Option<TxnId> {
        let shard = self.shards.get_mut(object.index())?;
        shard.set_suspected(self.suspected);
        shard.step(input, out)
    }

    /// Crash every shard (volatile state lost — the suspicion
    /// hint with it — durable records kept).
    pub fn crash(&mut self, out: &mut ActionSink) {
        self.suspected = SiteSet::EMPTY;
        for shard in &mut self.shards {
            shard.step(Input::Crash, out);
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
    use crate::message::Message;
    use crate::site::{Action, TimerKind};
    use dynvote_core::{AlgorithmKind, CopyMeta, LinearOrder};

    /// A 3-site deployment's site `id`, hosting `objects` objects.
    fn site(id: u8, objects: usize) -> ShardedSite {
        ShardedSite::new(SiteId(id), 3, objects, || {
            AlgorithmKind::Hybrid.instantiate(3)
        })
    }

    fn start(s: &mut ShardedSite, object: u32, payload: u64, out: &mut ActionSink) {
        let input = Input::Update {
            payloads: &[payload],
            hold: false,
        };
        let started = s.step(ObjectId(object), input, out);
        assert!(started.is_some(), "object {object} refused an update");
    }

    fn is_locked(s: &ShardedSite, object: u32) -> bool {
        s.shard(ObjectId(object))
            .expect("hosted object")
            .is_locked()
    }

    /// Deliver `msg` from `from` to the shard of the object it names.
    fn deliver(s: &mut ShardedSite, from: u8, msg: Message, out: &mut ActionSink) {
        let object = msg.txn().object;
        let from = SiteId(from);
        s.step(object, Input::Message { from, msg }, out);
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
        deliver(&mut b, 0, req, &mut sub_out);
        assert!(!sub_out.is_empty());
        assert!(is_locked(&b, 1));
        assert!(!is_locked(&b, 0));
        // An object this site does not host is refused, not a panic,
        // and stages nothing, whatever the input.
        let unhosted = ObjectId(77);
        let txn = TxnId::keyed(SiteId(0), 9, unhosted);
        let members = [(
            SiteId(0),
            CopyMeta::initial(3, &LinearOrder::lexicographic(3)),
        )];
        let inputs = [
            Input::Update {
                payloads: &[9],
                hold: false,
            },
            Input::Update {
                payloads: &[9, 10],
                hold: true,
            },
            Input::Read,
            Input::Message {
                from: SiteId(0),
                msg: Message::VoteRequest { txn },
            },
            Input::Timer {
                txn,
                kind: TimerKind::VoteDeadline,
            },
            Input::SuspicionGrew { txn },
            Input::Recover { restart_payload: 9 },
            Input::Finalize { txn, commit: true },
            Input::Redo {
                txn,
                payload: 9,
                members: &members,
            },
        ];
        for input in inputs {
            let shown = format!("{input:?}");
            let mut out = Vec::new();
            assert_eq!(b.step(unhosted, input, &mut out), None, "{shown}");
            assert!(out.is_empty(), "{shown} staged {out:?}");
        }
    }

    #[test]
    fn crash_clears_every_shard_lock() {
        let mut s = site(0, 7);
        let mut out = Vec::new();
        start(&mut s, 0, 1, &mut out);
        start(&mut s, 2, 2, &mut out);
        assert!(s.any_locked());
        s.crash(&mut out);
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
        deliver(&mut s, 1, vote, &mut out);
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
        deliver(&mut s, 1, vote, &mut out);
        s.set_suspected(SiteSet::from_bits(0b100));
        assert!(s.any_locked(), "setting the hint tests nothing");
        s.step(ObjectId(3), Input::SuspicionGrew { txn }, &mut out);
        assert!(!s.any_locked(), "re-test");
        // A crash forgets the hint with the rest of volatile state.
        s.crash(&mut out);
        out.clear();
        start(&mut s, 3, 2, &mut out);
        let txn = vote_request(&out).txn();
        let vote = Message::VoteGranted {
            txn,
            meta: s.shard(ObjectId(3)).unwrap().meta(),
            from: SiteId(1),
        };
        deliver(&mut s, 1, vote, &mut out);
        assert!(s.any_locked(), "unsuspected silent peer is waited for");
    }
}
