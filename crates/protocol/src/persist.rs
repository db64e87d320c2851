//! The kernel's durability boundary.
//!
//! [`SiteActor`](crate::SiteActor) funnels every mutation of its
//! [`DurableState`] through a handful of code
//! paths — prepare, commit, metadata install, log append, sequence
//! bump. Each one writes a [`PersistEffect`] into the caller's
//! [`ActionSink`](crate::ActionSink) as an [`Action::Persist`], at the
//! mutation point and therefore *ahead of every action the mutation
//! guards*. A harness that makes each step's persist effects durable
//! before it hands any later action to the transport gets the classic
//! force-write discipline: the prepare record is on disk before
//! `VOTE_GRANTED` is sent, the commit record before `COMMIT` fans out.
//!
//! Effects are plain data: the kernel stays free of files, clocks and
//! sockets, and owns no store. An [`PersistEffect::Entries`] effect
//! names a version range of the emitting shard's own log rather than
//! carrying a copy — the log is append-only, so the range stays valid
//! until the harness encodes it.
//!
//! [`PersistOp`] is the owned form recovery decodes a WAL into;
//! [`PersistEffect::op`] turns an effect into one. Every op is
//! *monotonic/idempotent by construction* — replaying a stream into a
//! fresh `DurableState` with [`apply_op`], in order, possibly with a
//! duplicated or truncated tail, reconstructs a valid state. That is
//! what makes torn-tail WAL recovery sound.

use crate::message::{LogEntry, ObjectId, TxnId};
use crate::site::{Action, DurableState};
use dynvote_core::{CopyMeta, SiteId, SiteSet};

/// One mutation of a shard's [`DurableState`], as the kernel emits it
/// in an [`Action::Persist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PersistEffect {
    /// The transaction sequence counter advanced to this value.
    Seq(u64),
    /// A prepare record: the site is in doubt on the transaction,
    /// coordinated by the site. Emitted before the vote.
    Prepared(TxnId, SiteId),
    /// The prepare record for the transaction was cleared (commit or
    /// abort arrived, or the termination protocol resolved it).
    PrepareCleared(TxnId),
    /// The log entries with versions in `(after, upto]` were appended
    /// (gapless — the kernel filters duplicates first). They are read
    /// from the emitting shard's own log: see [`PersistEffect::entries`].
    Entries {
        /// The log's newest version before the append.
        after: u64,
        /// The log's newest version after it.
        upto: u64,
    },
    /// The `(VN, SC, DS)` triple advanced to this value. Emitted only
    /// when the version actually moves forward.
    Meta(CopyMeta),
    /// A commit record: the transaction installed the metadata and
    /// counted the participants. On the coordinator this precedes the
    /// `COMMIT` fan-out.
    Committed(TxnId, CopyMeta, SiteSet),
}

impl PersistEffect {
    /// The entries an [`PersistEffect::Entries`] effect names, sliced
    /// out of `log` — the emitting shard's log, at emission or any time
    /// later — and `None` for every other effect.
    #[must_use]
    pub fn entries<'a>(&self, log: &'a [LogEntry]) -> Option<&'a [LogEntry]> {
        match *self {
            // The log is gapless from version 1: version `v` sits at
            // index `v - 1`.
            PersistEffect::Entries { after, upto } => Some(&log[after as usize..upto as usize]),
            _ => None,
        }
    }

    /// The owned op this effect records, reading entries from `log` as
    /// [`PersistEffect::entries`] does.
    #[must_use]
    pub fn op(&self, log: &[LogEntry]) -> PersistOp {
        match *self {
            PersistEffect::Seq(next_seq) => PersistOp::Seq(next_seq),
            PersistEffect::Prepared(txn, coordinator) => PersistOp::Prepared(txn, coordinator),
            PersistEffect::PrepareCleared(txn) => PersistOp::PrepareCleared(txn),
            PersistEffect::Entries { .. } => {
                PersistOp::Entries(self.entries(log).unwrap_or_default().to_vec())
            }
            PersistEffect::Meta(meta) => PersistOp::Meta(meta),
            PersistEffect::Committed(txn, meta, participants) => {
                PersistOp::Committed(txn, meta, participants)
            }
        }
    }
}

/// The persist effects in `actions`, in emission order, with the object
/// each belongs to.
pub fn effects(actions: &[Action]) -> impl Iterator<Item = (ObjectId, PersistEffect)> + '_ {
    actions.iter().filter_map(|action| match action {
        Action::Persist { object, effect } => Some((*object, *effect)),
        _ => None,
    })
}

/// One durable-state mutation in owned form: what a WAL record holds
/// and recovery replays.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistOp {
    /// [`PersistEffect::Seq`].
    Seq(u64),
    /// [`PersistEffect::Prepared`].
    Prepared(TxnId, SiteId),
    /// [`PersistEffect::PrepareCleared`].
    PrepareCleared(TxnId),
    /// [`PersistEffect::Entries`], with the entries themselves.
    Entries(Vec<LogEntry>),
    /// [`PersistEffect::Meta`].
    Meta(CopyMeta),
    /// [`PersistEffect::Committed`].
    Committed(TxnId, CopyMeta, SiteSet),
}

/// Replay one op into `state`, the way WAL recovery does: every op
/// applies monotonically, so duplicated or truncated tails cannot
/// corrupt the result.
pub fn apply_op(state: &mut DurableState, op: &PersistOp) {
    match op {
        PersistOp::Seq(next_seq) => state.next_seq = state.next_seq.max(*next_seq),
        PersistOp::Prepared(txn, coordinator) => state.prepared = Some((*txn, *coordinator)),
        PersistOp::PrepareCleared(txn) => {
            if state.prepared.is_some_and(|(t, _)| t == *txn) {
                state.prepared = None;
            }
        }
        PersistOp::Entries(entries) => {
            let mut newest = state.log.last().map_or(0, |e| e.version);
            for entry in entries {
                if entry.version == newest + 1 {
                    state.log.push(*entry);
                    newest = entry.version;
                }
            }
        }
        PersistOp::Meta(meta) => {
            if meta.version > state.meta.version {
                state.meta = *meta;
            }
        }
        PersistOp::Committed(txn, meta, participants) => {
            state.commits.insert(
                *txn,
                crate::site::CommitRecord {
                    meta: *meta,
                    participants: *participants,
                },
            );
        }
    }
}

/// The benchmark's adapter onto the kernel's persist effects: a
/// per-mutation observer installed with
/// [`SiteActor::set_persistence`](crate::SiteActor::set_persistence).
/// The kernel forwards each [`PersistEffect`] to the installed hook as
/// it writes the effect into the sink; no node installs one. Kept only
/// until the benchmark's storage rung reads [`Action::Persist`] itself,
/// and deleted with that change.
pub trait Persistence {
    /// [`PersistEffect::Seq`].
    fn seq_advanced(&mut self, next_seq: u64);
    /// [`PersistEffect::Prepared`].
    fn prepared(&mut self, txn: TxnId, coordinator: SiteId);
    /// [`PersistEffect::PrepareCleared`].
    fn prepare_cleared(&mut self, txn: TxnId);
    /// [`PersistEffect::Entries`], with the entries themselves.
    fn entries_appended(&mut self, entries: &[LogEntry]);
    /// [`PersistEffect::Meta`].
    fn meta_updated(&mut self, meta: CopyMeta);
    /// [`PersistEffect::Committed`].
    fn committed(&mut self, txn: TxnId, meta: CopyMeta, participants: SiteSet);
    /// Durability barrier, called by
    /// [`SiteActor::sync_persistence`](crate::SiteActor::sync_persistence).
    fn sync(&mut self) {}
}

/// Hand one effect to a [`Persistence`] hook.
pub(crate) fn forward(hook: &mut dyn Persistence, effect: PersistEffect, log: &[LogEntry]) {
    match effect {
        PersistEffect::Seq(next_seq) => hook.seq_advanced(next_seq),
        PersistEffect::Prepared(txn, coordinator) => hook.prepared(txn, coordinator),
        PersistEffect::PrepareCleared(txn) => hook.prepare_cleared(txn),
        PersistEffect::Entries { .. } => {
            hook.entries_appended(effect.entries(log).unwrap_or_default());
        }
        PersistEffect::Meta(meta) => hook.meta_updated(meta),
        PersistEffect::Committed(txn, meta, participants) => {
            hook.committed(txn, meta, participants);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{ActionSink, Input, SiteActor};
    use crate::Message;
    use dynvote_core::AlgorithmKind;

    fn site(id: u8, n: usize) -> SiteActor {
        SiteActor::new(SiteId(id), n, AlgorithmKind::Hybrid.instantiate(n))
    }

    /// Replay every persist effect a site wrote into `actions` through
    /// [`apply_op`], reading entries from the site's log.
    fn replay(actor: &SiteActor, actions: &[Action]) -> DurableState {
        let mut state = DurableState::initial(3);
        for (_, effect) in effects(actions) {
            apply_op(&mut state, &effect.op(actor.log()));
        }
        state
    }

    fn deliver(to: &mut SiteActor, from: SiteId, msg: Message, out: &mut ActionSink) {
        to.step(Input::Message { from, msg }, out);
    }

    /// Drive a full three-site commit (and an aborted prepare), keeping
    /// every action each site emitted, then replay each site's persist
    /// effects into a fresh state: the result must equal the live
    /// durable state. This is the soundness argument WAL recovery rests
    /// on.
    #[test]
    fn hook_stream_replays_to_identical_state() {
        let n = 3;
        let (mut a, mut b, mut c) = (site(0, n), site(1, n), site(2, n));
        let (mut out_a, mut out_b, mut out_c) = (Vec::new(), Vec::new(), Vec::new());

        // A coordinates an update; B and C vote; A commits; the COMMIT
        // messages land at B and C.
        let payloads = &[4242];
        a.step(
            Input::Update {
                payloads,
                hold: false,
            },
            &mut out_a,
        );
        let req = out_a
            .iter()
            .find_map(|act| match act {
                Action::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("vote request broadcast");
        deliver(&mut b, SiteId(0), req.clone(), &mut out_b);
        deliver(&mut c, SiteId(0), req, &mut out_c);
        let votes: Vec<(SiteId, Message)> = [(SiteId(1), &out_b), (SiteId(2), &out_c)]
            .into_iter()
            .flat_map(|(from, out)| {
                out.iter().filter_map(move |act| match act {
                    Action::Send { to, msg } => {
                        assert_eq!(*to, SiteId(0));
                        Some((from, msg.clone()))
                    }
                    _ => None,
                })
            })
            .collect();
        let start = out_a.len();
        for (from, msg) in votes {
            deliver(&mut a, from, msg, &mut out_a);
        }
        let commits: Vec<(SiteId, Message)> = out_a[start..]
            .iter()
            .filter_map(|act| match act {
                Action::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect();
        for (to, msg) in commits {
            let (target, out) = if to == SiteId(1) {
                (&mut b, &mut out_b)
            } else {
                (&mut c, &mut out_c)
            };
            deliver(target, SiteId(0), msg, out);
        }
        assert_eq!(a.meta().version, 1, "commit went through");
        assert_eq!(b.meta().version, 1);

        // One more prepare at B that aborts, exercising
        // Prepared/PrepareCleared.
        let t2 = crate::TxnId::new(SiteId(2), 99);
        deliver(
            &mut b,
            SiteId(2),
            Message::VoteRequest { txn: t2 },
            &mut out_b,
        );
        deliver(&mut b, SiteId(2), Message::Abort { txn: t2 }, &mut out_b);

        for (actor, out) in [(&a, &out_a), (&b, &out_b), (&c, &out_c)] {
            assert_eq!(
                &replay(actor, out),
                actor.durable(),
                "site {:?}",
                actor.id()
            );
        }
    }

    /// Replaying a truncated tail (the torn-write case) still yields a
    /// prefix-consistent state, and a duplicated tail changes nothing.
    #[test]
    fn truncated_and_duplicated_tails_are_safe() {
        let n = 3;
        let mut b = site(1, n);
        let mut out = Vec::new();
        let t = crate::TxnId::new(SiteId(0), 1);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t }, &mut out);
        let meta = CopyMeta {
            version: 1,
            cardinality: 3,
            distinguished: dynvote_core::Distinguished::Trio(SiteSet::all(3)),
        };
        deliver(
            &mut b,
            SiteId(0),
            Message::Commit {
                txn: t,
                meta,
                entries: vec![LogEntry {
                    version: 1,
                    payload: 7,
                }],
                participants: SiteSet::all(3),
            },
            &mut out,
        );
        let ops: Vec<PersistOp> = effects(&out).map(|(_, e)| e.op(b.log())).collect();
        assert_eq!(ops.len(), 5, "prepare, entries, meta, commit, clear");
        for cut in 0..=ops.len() {
            let mut state = DurableState::initial(n);
            for op in &ops[..cut] {
                apply_op(&mut state, op);
            }
            // Every prefix is a valid durable state: the log is gapless
            // and meta never runs ahead of it.
            let newest = state.log.last().map_or(0, |e| e.version);
            assert!(state.meta.version <= newest || state.meta.version == 0);
            for (i, e) in state.log.iter().enumerate() {
                assert_eq!(e.version, i as u64 + 1);
            }
        }
        // Duplicate the whole stream: idempotent.
        let mut once = DurableState::initial(n);
        let mut twice = DurableState::initial(n);
        for op in &ops {
            apply_op(&mut once, op);
        }
        for op in ops.iter().chain(ops.iter()) {
            apply_op(&mut twice, op);
        }
        assert_eq!(once, twice);
    }
}
