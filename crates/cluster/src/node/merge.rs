//! The merge barrier: the point where N workers' independent batches
//! become one node-wide step.
//!
//! Order matters and is fixed:
//!
//! 1. **Drain** — wait until every worker has processed everything
//!    dispatched to it ([`ShardPool::wait_idle`]), then lock every
//!    group. From here the kernels are quiescent.
//! 2. **Collect** — move every worker's staged actions into the reusable
//!    merge buffer (worker order, so the result is deterministic for a
//!    fixed dispatch history), park started client requests on their
//!    transactions, and fold restart tags in.
//! 3. **WAL barrier** — ingest every worker's staging buffer into the
//!    shared [`dynvote_storage::NodeStore`] (again worker order) and
//!    seal the lot as **one** checksummed group-commit record behind
//!    one fsync. Only after this may anything be announced: the
//!    force-write discipline survives parallel execution because
//!    nothing leaves the node before this point.
//! 4. **Ledger** — record commits in the cluster ledger before the
//!    fan-out can trigger a dependent commit on another node.
//! 5. **Dispatch** — sends and broadcasts go to the transport's batch
//!    encoder, `SetTimer` arms the wall-clock wheel, `Resolved`
//!    retires the round's timers and completes parked clients (or, for
//!    a lost lock race, forwards them to the object's home), and hints
//!    feed the scheduler's peer-suspicion set (`Unanswered`) and route
//!    table (`Rival`).
//! 6. **Push** — if the suspicion set grew, every worker is handed the
//!    new set, every round this node has open is re-tested against it,
//!    and the barrier runs again for what the re-tests staged: the
//!    rounds already waiting close in this loop iteration, not at
//!    their own deadlines.

use super::worker::ShardPool;
use super::{Node, Route};
use crate::wire::ClientReply;
use dynvote_core::SiteId;
use dynvote_protocol::{Action, CloseCause, Hint, ResolveReason, SiteActor, TxnId};
use std::collections::HashMap;

impl Node {
    /// Run the merge barrier over `pool`, again for as long as a pass
    /// grows the suspicion set (at most once per peer). Idempotent:
    /// with nothing staged it costs one no-op barrier check.
    pub(super) fn merge(&mut self, pool: &mut ShardPool) {
        while self.merge_pass(pool) {
            self.push_suspicion(pool);
        }
    }

    /// One barrier. `true` if it grew the suspicion set.
    fn merge_pass(&mut self, pool: &mut ShardPool) -> bool {
        pool.wait_idle();
        let mut groups = pool.lock_groups();

        // Collect, in worker order: staged actions into the reusable
        // merge buffer, started requests onto their transactions,
        // restart transactions into the exclusion set.
        let mut batch = std::mem::take(&mut self.merge_buf);
        for group in groups.iter_mut() {
            batch.append(&mut group.scratch);
            for txn in group.restarts.drain(..) {
                self.restart_txns.insert(txn);
            }
            for (txn, clients) in group.starts.drain(..) {
                match txn {
                    // Park every op the round carries, in payload order
                    // — the commit fan-out below acks each at its own
                    // version.
                    Some(txn) => self.pending.entry(txn).or_default().extend(clients),
                    // The kernel refused to start anything. `pump`
                    // only starts rounds on an unlocked shard, so no
                    // client op gets here; were one to, it never ran.
                    None => {
                        for client in clients {
                            self.answer(client, ClientReply::Overloaded);
                        }
                    }
                }
            }
            // Ops refused at the per-object queue bound: the typed
            // overload reply, distinct from a protocol-level refusal.
            for client in group.overflows.drain(..) {
                self.answer(client, ClientReply::Overloaded);
            }
        }

        // Group-commit barrier: every WAL op any worker staged this
        // batch is sealed as one record and fsynced (per the fsync
        // policy) before any send or client reply below announces it.
        // One fsync covers every object and every worker the batch
        // touched.
        if let Some(core) = &self.store {
            let mut core = core.lock().expect("store poisoned");
            for stage in &self.stages {
                core.ingest(&mut stage.lock().expect("stage poisoned"));
            }
            core.barrier().expect("WAL barrier");
        }

        // Ledger bookkeeping before the fan-out: a commit must be
        // globally recorded before the Commit broadcast below can
        // trigger a dependent commit (version + 1) on another thread,
        // or the ledger would flag a spurious gap.
        // A batched round commits k entries — one CommitRecorded per
        // entry, in version (= payload) order — so a transaction maps
        // to the ordered version list its client ops landed at.
        let mut committed: HashMap<TxnId, Vec<u64>> = HashMap::new();
        for action in &batch {
            if let Action::CommitRecorded {
                version,
                payload,
                txn,
            } = action
            {
                self.ledger.record(self.id, txn.object, *version, *payload);
                committed.entry(*txn).or_default().push(*version);
                if !self.restart_txns.contains(txn) {
                    self.commits += 1;
                }
            }
        }

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
                    // termination-round count; the group locks are
                    // still held, so read it through the owner's
                    // partition.
                    let rounds = groups[txn.object.index() % groups.len()]
                        .part
                        .shard(txn.object)
                        .map_or(0, SiteActor::prepared_rounds);
                    self.arm_timer(txn, kind, rounds);
                }
                Action::Resolved { txn, reason } => {
                    // Nobody waits on this round's deadlines any more:
                    // retire them instead of waking up for each.
                    for timer in self.vote_clock.retire(txn) {
                        self.timers.cancel(timer);
                    }
                    self.restart_txns.remove(&txn);
                    if reason == ResolveReason::Contended {
                        self.shard_stats.note_contended();
                    }
                    if let Some(clients) = self.pending.remove(&txn) {
                        // One Resolved covers every op of the round:
                        // fan the completion out, acking each parked
                        // client exactly once. On commit, client i
                        // (payload order) landed at the round's i-th
                        // recorded version.
                        let versions = committed.get(&txn);
                        let fallback = || {
                            groups[txn.object.index() % groups.len()]
                                .part
                                .shard(txn.object)
                                .map_or(0, |s| s.meta().version)
                        };
                        for (i, client) in clients.into_iter().enumerate() {
                            // A lost race is not the client's problem
                            // when the object has a home: the op joins
                            // that site's queue instead of being sent
                            // back to try the same race again.
                            if reason == ResolveReason::Contended && client.route == Route::Free {
                                if let Some(home) = self.usable_home(txn.object) {
                                    self.forward(home, txn.object, client);
                                    continue;
                                }
                            }
                            let reply = match reason {
                                ResolveReason::Committed => ClientReply::Committed {
                                    version: versions
                                        .and_then(|v| v.get(i).copied())
                                        .unwrap_or_else(fallback),
                                },
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
                Action::CommitRecorded { .. } => {} // handled above
                Action::Hint(Hint::Unanswered {
                    cause: CloseCause::Suspected,
                    ..
                }) => self.shard_stats.note_closed_early(),
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
            }
        }
        self.merge_buf = batch;
        self.suspected != suspected_before
    }
}
