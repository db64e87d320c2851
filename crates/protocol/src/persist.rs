//! The kernel's durability boundary.
//!
//! [`SiteActor`](crate::SiteActor) funnels every mutation of its
//! [`DurableState`](crate::DurableState) through a handful of code
//! paths — prepare, commit, metadata install, log append, sequence
//! bump. A [`Persistence`] implementation observes exactly those
//! mutations, *synchronously, before the corresponding protocol action
//! leaves the site*: the kernel calls the hook at the mutation point,
//! and only afterwards does the harness flush the action batch to the
//! transport. A write-ahead log that fsyncs inside the hook therefore
//! gets the classic force-write discipline for free — the prepare
//! record is on disk before `VOTE_GRANTED` is sent, the commit record
//! before `COMMIT` fans out.
//!
//! The trait is defined here, in the sans-IO kernel, but implemented
//! elsewhere (`dynvote-storage` provides the on-disk one): the kernel
//! stays free of files, clocks and sockets. When no hook is installed
//! the per-mutation cost is one `Option` branch.
//!
//! Every hook is *monotonic/idempotent by construction* — replaying a
//! recorded hook stream into a fresh `DurableState`, in order, possibly
//! with a duplicated or truncated tail, reconstructs a valid state.
//! That is what makes torn-tail WAL recovery sound.

use crate::message::{LogEntry, TxnId};
use crate::site::DurableState;
use dynvote_core::{CopyMeta, SiteId, SiteSet};

/// Observer of [`DurableState`](crate::DurableState) mutations; the
/// kernel invokes each hook at the mutation point, before the
/// corresponding action is handed to the transport.
pub trait Persistence {
    /// The transaction sequence counter advanced to `next_seq`.
    fn seq_advanced(&mut self, next_seq: u64);

    /// A prepare record was forced: the site is in doubt on `txn`,
    /// coordinated by `coordinator`. Fires before the vote is sent.
    fn prepared(&mut self, txn: TxnId, coordinator: SiteId);

    /// The prepare record for `txn` was cleared (commit or abort
    /// arrived, or the termination protocol resolved it).
    fn prepare_cleared(&mut self, txn: TxnId);

    /// `entries` were appended to the committed log (already gapless —
    /// the kernel filters duplicates before the hook fires).
    fn entries_appended(&mut self, entries: &[LogEntry]);

    /// The `(VN, SC, DS)` triple advanced to `meta`. Fires only when
    /// the version actually moves forward.
    fn meta_updated(&mut self, meta: CopyMeta);

    /// A commit record for `txn` was forced: it installed `meta` and
    /// counted `participants`. On the coordinator this fires before
    /// `COMMIT` fans out.
    fn committed(&mut self, txn: TxnId, meta: CopyMeta, participants: SiteSet);

    /// Durability barrier: the harness calls this (via
    /// [`SiteActor::sync_persistence`](crate::SiteActor::sync_persistence))
    /// after draining an action batch. Group-commit implementations
    /// flush here instead of inside every hook.
    fn sync(&mut self) {}

    /// The current WAL epoch (snapshot generation), when the
    /// implementation keeps one. Surfaced by status endpoints; the
    /// default `None` marks a volatile implementation.
    fn wal_epoch(&self) -> Option<u64> {
        None
    }
}

/// A [`Persistence`] recorder for tests: captures the hook stream as a
/// list of [`PersistOp`]s. Cloning yields a handle onto the same
/// recording, so one clone can live inside the actor while the test
/// keeps another to inspect.
#[derive(Debug, Default, Clone)]
pub struct RecordingPersistence {
    inner: std::sync::Arc<std::sync::Mutex<Recorded>>,
}

#[derive(Debug, Default)]
struct Recorded {
    ops: Vec<PersistOp>,
    syncs: u64,
}

impl RecordingPersistence {
    /// An empty recording.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded hook stream, in invocation order.
    #[must_use]
    pub fn ops(&self) -> Vec<PersistOp> {
        self.inner.lock().unwrap().ops.clone()
    }

    /// Number of [`Persistence::sync`] calls observed.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }
}

/// One recorded [`Persistence`] hook invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistOp {
    /// [`Persistence::seq_advanced`].
    Seq(u64),
    /// [`Persistence::prepared`].
    Prepared(TxnId, SiteId),
    /// [`Persistence::prepare_cleared`].
    PrepareCleared(TxnId),
    /// [`Persistence::entries_appended`].
    Entries(Vec<LogEntry>),
    /// [`Persistence::meta_updated`].
    Meta(CopyMeta),
    /// [`Persistence::committed`].
    Committed(TxnId, CopyMeta, SiteSet),
}

impl Persistence for RecordingPersistence {
    fn seq_advanced(&mut self, next_seq: u64) {
        self.inner
            .lock()
            .unwrap()
            .ops
            .push(PersistOp::Seq(next_seq));
    }

    fn prepared(&mut self, txn: TxnId, coordinator: SiteId) {
        self.inner
            .lock()
            .unwrap()
            .ops
            .push(PersistOp::Prepared(txn, coordinator));
    }

    fn prepare_cleared(&mut self, txn: TxnId) {
        self.inner
            .lock()
            .unwrap()
            .ops
            .push(PersistOp::PrepareCleared(txn));
    }

    fn entries_appended(&mut self, entries: &[LogEntry]) {
        self.inner
            .lock()
            .unwrap()
            .ops
            .push(PersistOp::Entries(entries.to_vec()));
    }

    fn meta_updated(&mut self, meta: CopyMeta) {
        self.inner.lock().unwrap().ops.push(PersistOp::Meta(meta));
    }

    fn committed(&mut self, txn: TxnId, meta: CopyMeta, participants: SiteSet) {
        self.inner
            .lock()
            .unwrap()
            .ops
            .push(PersistOp::Committed(txn, meta, participants));
    }

    fn sync(&mut self) {
        self.inner.lock().unwrap().syncs += 1;
    }
}

/// Replay a recorded hook stream into `state`, the way WAL recovery
/// does: every op applies monotonically, so duplicated or truncated
/// tails cannot corrupt the result.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteActor;
    use crate::Message;
    use dynvote_core::{AlgorithmKind, LinearOrder};

    fn initial_state(n: usize) -> DurableState {
        DurableState {
            meta: CopyMeta::initial(n, &LinearOrder::lexicographic(n)),
            log: Vec::new(),
            commits: std::collections::HashMap::new(),
            prepared: None,
            next_seq: 0,
        }
    }

    fn recorded_site(id: u8, n: usize) -> (SiteActor, RecordingPersistence) {
        let mut actor = SiteActor::new(SiteId(id), n, AlgorithmKind::Hybrid.instantiate(n));
        let rec = RecordingPersistence::new();
        actor.set_persistence(Box::new(rec.clone()));
        (actor, rec)
    }

    /// Drive a full three-site commit (and an aborted prepare) through
    /// hooked actors, then replay each site's hook stream into a fresh
    /// state: the result must equal the live durable state. This is the
    /// soundness argument WAL recovery rests on.
    #[test]
    fn hook_stream_replays_to_identical_state() {
        let n = 3;
        let (mut a, rec_a) = recorded_site(0, n);
        let (mut b, rec_b) = recorded_site(1, n);
        let (mut c, rec_c) = recorded_site(2, n);
        let mut out = Vec::new();

        // A coordinates an update; B and C vote; A commits; the COMMIT
        // messages land at B and C.
        a.start_update(4242, &mut out);
        let mut to_a = Vec::new();
        for (site, sub) in [(SiteId(1), &mut b), (SiteId(2), &mut c)] {
            let mut sub_out = Vec::new();
            let req = out
                .iter()
                .find_map(|act| match act {
                    crate::Action::Broadcast { msg } => Some(msg.clone()),
                    _ => None,
                })
                .expect("vote request broadcast");
            sub.handle_message(SiteId(0), req, &mut sub_out);
            for act in sub_out {
                if let crate::Action::Send { to, msg } = act {
                    assert_eq!(to, SiteId(0));
                    to_a.push((site, msg));
                }
            }
        }
        let mut commit_out = Vec::new();
        for (from, msg) in to_a {
            a.handle_message(from, msg, &mut commit_out);
        }
        let mut leftovers = Vec::new();
        for act in commit_out {
            if let crate::Action::Send { to, msg } = act {
                let target = if to == SiteId(1) { &mut b } else { &mut c };
                target.handle_message(SiteId(0), msg, &mut leftovers);
            }
        }
        assert_eq!(a.meta().version, 1, "commit went through");
        assert_eq!(b.meta().version, 1);

        // One more prepare at B that aborts, exercising
        // prepared/prepare_cleared.
        let t2 = crate::TxnId::new(SiteId(2), 99);
        b.handle_message(SiteId(2), Message::VoteRequest { txn: t2 }, &mut leftovers);
        b.handle_message(SiteId(2), Message::Abort { txn: t2 }, &mut leftovers);

        for (actor, rec) in [(&a, &rec_a), (&b, &rec_b), (&c, &rec_c)] {
            let mut replayed = initial_state(n);
            for op in rec.ops() {
                apply_op(&mut replayed, &op);
            }
            assert_eq!(&replayed, actor.durable(), "site {:?}", actor.id());
        }
    }

    /// Replaying a truncated tail (the torn-write case) still yields a
    /// prefix-consistent state, and a duplicated tail changes nothing.
    #[test]
    fn truncated_and_duplicated_tails_are_safe() {
        let n = 3;
        let (mut b, rec) = recorded_site(1, n);
        let mut out = Vec::new();
        let t = crate::TxnId::new(SiteId(0), 1);
        b.handle_message(SiteId(0), Message::VoteRequest { txn: t }, &mut out);
        let meta = CopyMeta {
            version: 1,
            cardinality: 3,
            distinguished: dynvote_core::Distinguished::Trio(SiteSet::all(3)),
        };
        b.handle_message(
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
        let ops = rec.ops();
        for cut in 0..=ops.len() {
            let mut state = initial_state(n);
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
        let mut once = initial_state(n);
        let mut twice = initial_state(n);
        for op in &ops {
            apply_op(&mut once, op);
        }
        for op in ops.iter().chain(ops.iter()) {
            apply_op(&mut twice, op);
        }
        assert_eq!(once, twice);
    }
}
