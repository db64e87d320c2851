//! Single-writer routing: stop losing the same lock race twice.
//!
//! Two coordinators that start rounds on one object at once are safe —
//! one collects `VoteBusy`, aborts, and its client is told `Contended`
//! — but the loser's round is wasted work, and clients on a shared
//! clock lose the same race on every tick. So a node remembers whom it
//! raced: when a kernel coordinating object *k* denies a rival's vote
//! request it says so ([`Action::Rival`](dynvote_protocol::Action)),
//! and the node records the rival as *k*'s **home** — only if the rival
//! is lower-numbered, so hints point strictly downward and can neither
//! cycle nor ping-pong. From then on this node's client ops on *k* (and
//! the clients of a round it has just lost) are not started as rival
//! rounds: each crosses one link as a [`Relay::Forward`], joins the
//! home's ordinary per-object FIFO, and its answer comes back as a
//! [`Relay::ForwardReply`] for the reply token this node kept (or its deadline
//! on the node's timer wheel answers it `TimedOut`).
//!
//! Everything here is volatile and advisory. A hint is learned only
//! from observed contention, never expires, and a stale one costs one
//! hop; nothing a quorum decides depends on it. What a client may see
//! when a forwarded op meets a fault is enumerated in DESIGN.md
//! ("Single-writer routing").

use crate::{Client, Deadline, Node, ReplyTo, Route};
use crate::{ClientReply, PeerFrame, Relay};
use dynvote_core::{SiteId, TimerId};
use dynvote_protocol::ObjectId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// An op handed to its object's home and not yet answered.
#[derive(Debug)]
struct Forwarded {
    object: ObjectId,
    home: SiteId,
    client: Client,
    /// The forward's deadline, cancelled when its answer arrives.
    timer: TimerId,
}

/// The node's routing state.
#[derive(Debug, Default)]
pub(crate) struct Routes {
    /// Per object, the lowest-numbered site this node has raced for it.
    homes: HashMap<ObjectId, SiteId>,
    /// Ops in flight to a home, by forward id.
    pending: HashMap<u64, Forwarded>,
    /// Never reset: an answer to a forward from before a crash must not
    /// find a newer op under its id.
    next_id: u64,
}

impl Node {
    /// How long a forwarded op may stay unanswered: the home may need a
    /// full round for the op queued ahead of it and one for this one.
    fn forward_deadline(&self) -> Duration {
        2 * (self.config.vote_deadline + self.config.catchup_deadline)
    }

    /// A round coordinated here denied `rival`'s vote request for
    /// `object`.
    pub(super) fn learn_home(&mut self, object: ObjectId, rival: SiteId) {
        if rival >= self.id {
            return;
        }
        let home = self.routes.homes.entry(object).or_insert(rival);
        *home = (*home).min(rival);
        self.shard_stats.note_routed(self.routes.homes.len());
    }

    /// Drop `object`'s hint if it still names `home`.
    fn forget_home(&mut self, object: ObjectId, home: SiteId) {
        if self.routes.homes.get(&object) == Some(&home) {
            self.routes.homes.remove(&object);
            self.shard_stats.note_routed(self.routes.homes.len());
        }
    }

    /// The site to hand `object`'s ops to, if the hint is worth
    /// following right now: a home this node suspects or cannot reach
    /// is bypassed, not forgotten.
    pub(super) fn usable_home(&self, object: ObjectId) -> Option<SiteId> {
        let home = *self.routes.homes.get(&object)?;
        (self.reachable.contains(home) && !self.suspected.contains(home)).then_some(home)
    }

    /// Start a data-plane op of a live node on its way: to the object's
    /// home if the op may still travel and a usable hint exists, into
    /// the local per-object FIFO otherwise.
    pub(super) fn submit(&mut self, object: ObjectId, client: Client, now: Instant) {
        if client.route == Route::Free {
            if let Some(home) = self.usable_home(object) {
                self.forward(home, object, client, now);
                return;
            }
        }
        let payload = if client.read { 0 } else { self.fresh_payload() };
        self.enqueue(object, payload, client);
    }

    /// Hand one of this node's client ops to `home` at `now`.
    pub(super) fn forward(&mut self, home: SiteId, object: ObjectId, client: Client, now: Instant) {
        self.routes.next_id += 1;
        let id = self.routes.next_id;
        let read = client.read;
        let when = now + self.forward_deadline();
        let timer = self.timers.schedule(when, Deadline::Forward(id));
        self.routes.pending.insert(
            id,
            Forwarded {
                object,
                home,
                client,
                timer,
            },
        );
        self.shard_stats.note_forwarded_out();
        self.relay(
            home,
            Relay::Forward {
                id,
                key: object.0,
                read,
            },
        );
    }

    /// A relay frame from a peer this node can hear.
    pub(super) fn on_relay(&mut self, from: SiteId, relay: Relay, now: Instant) {
        match relay {
            Relay::Forward { id, key, read } => {
                let client = Client {
                    id,
                    reply: None,
                    read,
                    route: Route::From(from),
                };
                self.shard_stats.note_forwarded_in();
                if (key as usize) < self.objects {
                    self.submit(ObjectId(key), client, now);
                } else {
                    self.answer(client, ClientReply::UnknownKey);
                }
            }
            Relay::ForwardReply { id, reply } => {
                // No such forward to that site: the answer outlived its
                // deadline or a crash, and the client has been told so.
                if self.routes.pending.get(&id).map(|f| f.home) != Some(from) {
                    return;
                }
                let Forwarded {
                    object,
                    home,
                    mut client,
                    timer,
                } = self.routes.pending.remove(&id).expect("entry just seen");
                self.timers.cancel(timer);
                // A refusal is definite — the op did not run — so it
                // runs here instead, once. The home's own `TimedOut`
                // is relayed as it is: to a client that always means
                // "may have run". Either way the home is no single
                // writer to be trusted with the next op.
                let refused = matches!(
                    reply,
                    ClientReply::Down
                        | ClientReply::Rejected
                        | ClientReply::Overloaded
                        | ClientReply::Contended
                );
                if refused || reply == ClientReply::TimedOut {
                    self.forget_home(object, home);
                }
                if refused {
                    client.route = Route::Spent;
                    self.submit(object, client, now);
                } else {
                    self.answer(client, reply);
                }
            }
        }
    }

    /// Forward `id`'s deadline passed with no answer. The op may or may
    /// not have run at the home, so it is **not** run again: the client
    /// is told `TimedOut`, which means exactly that.
    pub(super) fn expire_forward(&mut self, id: u64) {
        if let Some(forwarded) = self.routes.pending.remove(&id) {
            self.shard_stats.note_forward_timeout();
            self.forget_home(forwarded.object, forwarded.home);
            self.answer(forwarded.client, ClientReply::TimedOut);
        }
    }

    /// Crash or shutdown: the route table is volatile state, and ops in
    /// flight to a home die with the site like every other parked op.
    pub(super) fn drop_routes(&mut self) {
        self.routes.homes.clear();
        self.shard_stats.note_routed(0);
        let pending = std::mem::take(&mut self.routes.pending);
        for (_, forwarded) in pending {
            self.answer(forwarded.client, ClientReply::Down);
        }
    }

    /// Answer a data-plane op, wherever its client is.
    pub(crate) fn answer(&mut self, client: Client, reply: ClientReply) {
        match (client.route, client.reply) {
            (Route::From(origin), _) => self.relay(
                origin,
                Relay::ForwardReply {
                    id: client.id,
                    reply,
                },
            ),
            (Route::Free | Route::Spent, Some(to)) => self.reply(to, client.id, reply),
            (Route::Free | Route::Spent, None) => {}
        }
    }

    /// Put a client's answer in the outbox for its host to deliver.
    pub(super) fn reply(&mut self, to: ReplyTo, id: u64, reply: ClientReply) {
        self.out.replies.push((to, id, reply));
    }

    /// Put a relay frame in the outbox. Relays obey the same fault model
    /// as protocol messages: a crashed site is silent and a partition
    /// drops both directions.
    pub(super) fn relay(&mut self, to: SiteId, relay: Relay) {
        if self.reaches(to) {
            self.out.peers.push((to, PeerFrame::Relay(relay)));
        }
    }
}
