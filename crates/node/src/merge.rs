//! The merge barrier: the point where a batch of kernel steps becomes
//! one node-wide step.
//!
//! Order matters and is fixed:
//!
//! 1. **Collect** — take the scratch buffer the batch's kernel steps
//!    staged into, and answer the ops refused at a per-object queue
//!    bound. Started client requests were parked on their transactions,
//!    and restart transactions entered with no client, as the kernels
//!    ran.
//! 2. **WAL barrier** — encode the batch's [`Action::Persist`] effects,
//!    in emission order, into the node's [`dynvote_storage::NodeStore`]
//!    and seal them as **one** checksummed group-commit record behind
//!    one fsync. Only after this may anything be announced: nothing
//!    leaves the node before this point.
//! 3. **Dispatch** — sends, broadcasts and client answers go to the
//!    node's outbox, for the host to transmit after the batch;
//!    `SetTimer` arms the timer wheel from `now` and `ClearTimers`
//!    cancels every timer still armed for its transaction,
//!    `CommitRecorded` books the version a round's op landed at (the
//!    kernel emits it before the round's `Resolved`), `Resolved`
//!    completes parked clients (or, for a lost lock race, forwards them
//!    to the object's home), hints feed the scheduler's
//!    peer-suspicion set (`Unanswered`) and route table (`Rival`), and
//!    protocol events are counted into the node's tally row (and
//!    printed, with `trace`).
//! 4. **Push** — if the suspicion set grew, the kernels are handed the
//!    new set, every round this node has open is re-tested against it,
//!    and the barrier runs again for what the re-tests staged: the
//!    rounds already waiting close in this loop iteration, not at
//!    their own deadlines.

use crate::{ClientReply, Node, Route};
use dynvote_core::SiteId;
use dynvote_protocol::persist::effects;
use dynvote_protocol::{Action, CloseCause, Hint, ResolveReason, SiteActor};
use std::time::Instant;

impl Node {
    /// Run the merge barrier, again for as long as a pass grows the
    /// suspicion set (at most once per peer). Idempotent: with nothing
    /// staged it costs one no-op barrier check.
    pub(super) fn merge(&mut self, now: Instant) {
        while self.merge_pass(now) {
            self.push_suspicion();
        }
    }

    /// One barrier. `true` if it grew the suspicion set.
    fn merge_pass(&mut self, now: Instant) -> bool {
        self.shard_stats.merge_barriers += 1;
        let mut batch = std::mem::take(&mut self.scratch);
        // Ops refused at the per-object queue bound: the typed overload
        // reply, distinct from a protocol-level refusal.
        for client in std::mem::take(&mut self.overflows) {
            self.answer(client, ClientReply::Overloaded);
        }

        // Group-commit barrier: every persist effect the batch emitted
        // is sealed as one record and fsynced (per the fsync policy)
        // before any send or client reply below announces it. One fsync
        // covers every object the batch touched.
        if let Some(store) = &mut self.store {
            for (object, effect) in effects(&batch) {
                let shard = self
                    .site
                    .shard(object)
                    .expect("an effect names its own shard");
                store.append_effect(object, &effect, shard.log());
            }
            store.barrier().expect("WAL barrier");
        }

        // A batched round commits k entries — one CommitRecorded per
        // entry, in version (= payload) order, all before the round's
        // Resolved — so a transaction's entries, in order, are the
        // versions its client ops landed at.
        let mut committed = std::mem::take(&mut self.committed);
        committed.clear();
        let suspected_before = self.suspected;
        for action in batch.drain(..) {
            match action {
                Action::Send { to, msg } => self.send(to, msg),
                Action::Broadcast { msg } => {
                    for i in 0..self.n {
                        let to = SiteId(i as u8);
                        if to != self.id {
                            self.send(to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { txn, kind } => {
                    // The backoff schedule needs the shard's current
                    // termination-round count.
                    let rounds = self
                        .site
                        .shard(txn.object)
                        .map_or(0, SiteActor::prepared_rounds);
                    self.arm_timer(txn, kind, rounds, now);
                }
                Action::ClearTimers { txn } => self.clear_timers(txn),
                Action::Resolved { txn, reason } => {
                    if reason == ResolveReason::Contended {
                        self.shard_stats.contended += 1;
                    }
                    if let Some(clients) = self.pending.remove(&txn) {
                        // One Resolved covers every op of the round:
                        // fan the completion out, acking each parked
                        // client exactly once. On commit, client i
                        // (payload order) landed at the round's i-th
                        // recorded version.
                        let mut versions = committed.iter().filter(|(t, _)| *t == txn);
                        let fallback = self.site.shard(txn.object).map_or(0, |s| s.meta().version);
                        for client in clients {
                            let version = versions.next().map_or(fallback, |&(_, v)| v);
                            // A lost race is not the client's problem
                            // when the object has a home: the op joins
                            // that site's queue instead of being sent
                            // back to try the same race again.
                            if reason == ResolveReason::Contended && client.route == Route::Free {
                                if let Some(home) = self.usable_home(txn.object) {
                                    self.forward(home, txn.object, client, now);
                                    continue;
                                }
                            }
                            let reply = match reason {
                                ResolveReason::Committed => ClientReply::Committed { version },
                                ResolveReason::ReadServed => ClientReply::ReadServed,
                                ResolveReason::NotDistinguished => ClientReply::Rejected,
                                ResolveReason::Contended => ClientReply::Contended,
                                // Unreachable for the same reason as
                                // the refused start above.
                                ResolveReason::LockBusy => ClientReply::Overloaded,
                                ResolveReason::Timeout => ClientReply::TimedOut,
                            };
                            self.answer(client, reply);
                        }
                    }
                }
                // Group mode is a multi-file transaction-manager hook;
                // the live cluster runs single-file updates only.
                Action::DecisionReady { .. } => {}
                Action::CommitRecorded { version, txn, .. } => {
                    committed.push((txn, version));
                    if self
                        .pending
                        .get(&txn)
                        .is_some_and(|clients| !clients.is_empty())
                    {
                        self.commits += 1;
                    }
                }
                Action::Persist { .. } => {} // sealed above
                Action::Hint(Hint::Unanswered {
                    cause: CloseCause::Suspected,
                    ..
                }) => self.shard_stats.rounds_closed_early += 1,
                // A deadline or a grace waited for these peers in vain:
                // stop waiting for them until they are heard from
                // again.
                Action::Hint(Hint::Unanswered { sites, cause, .. }) => {
                    for peer in sites.iter() {
                        self.shard_stats
                            .note_vote_missed(peer, cause == CloseCause::Grace);
                    }
                    self.set_suspected(self.suspected.union(sites));
                }
                Action::Hint(Hint::Rival { txn, site }) => self.learn_home(txn.object, site),
                Action::Event(event) => {
                    if self.trace {
                        eprintln!("[site {}] {event}", self.id);
                    }
                    self.event_counts[event.kind() as usize] += 1;
                }
            }
        }
        self.scratch = batch;
        self.committed = committed;
        self.suspected != suspected_before
    }
}
