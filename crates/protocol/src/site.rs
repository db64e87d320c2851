//! The per-site protocol state machine.
//!
//! Each site runs three roles from Section V:
//!
//! * **coordinator** of updates arriving locally — the three-phase
//!   protocol (voting → catch-up → commit) of Section V-B;
//! * **subordinate** in other sites' updates — vote, hold the lock,
//!   await the decision; if the decision never arrives, run the
//!   cooperative **termination protocol** (query peers; stay blocked if
//!   nobody knows — the unavoidable blocking window of two-phase
//!   commit);
//! * **restarter** after recovery — the `Make_Current` protocol of
//!   Section V-C, implemented as a coordinated no-op update that
//!   increments the version ("we treat this operation like an update").
//!
//! Durability follows the classic 2PC discipline: a subordinate
//! force-writes a *prepare record* before granting its vote (so a crash
//! cannot silently release a lock that guards an in-doubt update), and a
//! coordinator force-writes its *commit record* before announcing
//! `COMMIT` (so recovery can presume abort when no record exists).
//! Both records live in [`DurableState`] and survive [`SiteActor::crash`].

use crate::event::ProtocolEvent;
use crate::message::{LogEntry, Message, ObjectId, StatusOutcome, TxnId};
use crate::persist::{self, PersistEffect, Persistence};
use dynvote_core::{CopyMeta, LinearOrder, PartitionView, ReplicaControl, SiteId, SiteSet};
use std::collections::HashMap;

/// Why a transaction finished, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolveReason {
    /// Commit succeeded.
    Committed,
    /// A read-only request was served (footnote 5: no metadata change).
    ReadServed,
    /// The partition was not distinguished: with every answering site's
    /// vote in hand, this partition may not write.
    NotDistinguished,
    /// The granted votes were not distinguished, but at least one peer
    /// answered `VoteBusy` — its copy was locked by a rival coordinator.
    /// A lost lock race, not a statement about the partition.
    Contended,
    /// The local copy was locked by another transaction.
    LockBusy,
    /// Vote collection or catch-up timed out before a quorum assembled.
    Timeout,
}

/// Timers a site can request from the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Coordinator: stop waiting for votes and decide.
    VoteDeadline,
    /// Coordinator: the host's straggler grace for a voting phase ran
    /// out. The round closes now if — and only if — the replies in hand
    /// already pass `Is_Distinguished`; otherwise nothing happens and
    /// [`TimerKind::VoteDeadline`] stays the only road to a refusal.
    /// Host-armed: the kernel never asks for it with
    /// [`Action::SetTimer`], so a host that does not arm it (the
    /// simulator) sees no difference.
    VoteGrace,
    /// Coordinator: catch-up reply is overdue; abort.
    CatchUpDeadline,
    /// Prepared subordinate: decision overdue; run the termination
    /// protocol (and re-arm).
    PreparedRetry,
}

/// Effects a site hands back to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send a message to one site.
    Send {
        /// Destination site.
        to: SiteId,
        /// The message.
        msg: Message,
    },
    /// Send a message to every *other* site.
    Broadcast {
        /// The message.
        msg: Message,
    },
    /// Arm a timer; the engine calls back [`SiteActor::timer_fired`].
    SetTimer {
        /// The transaction the timer guards.
        txn: TxnId,
        /// Which deadline.
        kind: TimerKind,
    },
    /// A transaction coordinated here finished (for statistics).
    Resolved {
        /// The transaction.
        txn: TxnId,
        /// How it ended.
        reason: ResolveReason,
    },
    /// Group mode: the voting (and catch-up) phases finished; the
    /// transaction manager must now call [`SiteActor::finalize_group`].
    DecisionReady {
        /// The per-file transaction.
        txn: TxnId,
        /// True if this file's partition is distinguished (and the
        /// coordinator's copy is current).
        distinguished: bool,
    },
    /// A new version was committed here as coordinator — the engine's
    /// omniscient ledger checks it against every other commit.
    CommitRecorded {
        /// The committed version.
        version: u64,
        /// Its payload.
        payload: u64,
        /// The committing transaction.
        txn: TxnId,
    },
    /// An advisory observation; see [`Hint`] for the contract.
    Hint(Hint),
    /// A protocol decision this site made (see [`crate::event`]). The
    /// host counts it in the tally row it owns for this site and, when
    /// tracing, renders it.
    Event(ProtocolEvent),
    /// A mutation of `object`'s durable state (see [`crate::persist`]).
    /// Written at the mutation point, so it precedes every action the
    /// mutation guards: the harness makes it durable before it hands
    /// any later action to the transport.
    Persist {
        /// The shard whose state changed.
        object: ObjectId,
        /// What changed.
        effect: PersistEffect,
    },
}

/// The advisory half of [`Action`]: observations the kernel passes up
/// because a harness can use them to avoid waiting or racing. None
/// changes what a quorum decides, and ignoring a hint is always
/// correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Hint {
    /// The voting phase of `txn` ended with `sites` still silent. A
    /// harness that keeps a peer-suspicion set (see
    /// [`SiteActor::set_suspected`]) feeds it from this.
    Unanswered {
        /// The transaction whose round closed.
        txn: TxnId,
        /// The peers whose reply never arrived.
        sites: SiteSet,
        /// What ended the wait.
        cause: CloseCause,
    },
    /// While coordinating `txn`, this site denied a vote request for the
    /// same object from rival coordinator `site`. A harness may route
    /// later work on the object to one of the two instead of racing
    /// again.
    Rival {
        /// The local round that met the rival.
        txn: TxnId,
        /// The coordinator whose vote request was denied.
        site: SiteId,
    },
}

/// What ended a voting phase that still had peers silent
/// ([`Hint::Unanswered`]). Only [`CloseCause::Deadline`] can end it in a
/// refusal; the other two are taken only when the replies in hand are
/// already distinguished, so they change *when* a round decides, never
/// *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseCause {
    /// [`TimerKind::VoteDeadline`] fired waiting for them.
    Deadline,
    /// [`TimerKind::VoteGrace`] fired: they are slower than the host
    /// has seen its peers answer lately.
    Grace,
    /// They were all suspected already ([`SiteActor::set_suspected`]).
    Suspected,
}

/// A caller-owned, reusable buffer the kernel appends its [`Action`]s
/// to. Every action-producing [`SiteActor`] entry point takes
/// `out: &mut ActionSink` and *appends* — it never clears — so one
/// event-loop iteration can collect the effects of several kernel calls
/// into a single buffer and drain it once. Reusing the buffer across
/// calls keeps the hot path free of per-message `Vec` allocations.
pub type ActionSink = Vec<Action>;

/// A durable commit record: what the transaction installed and whom it
/// counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitRecord {
    /// Metadata the commit installed.
    pub meta: CopyMeta,
    /// The counted participant set `P`.
    pub participants: SiteSet,
}

/// State that survives crashes (force-written before the corresponding
/// message leaves the site).
#[derive(Debug, Clone, PartialEq)]
pub struct DurableState {
    /// The copy's `(VN, SC, DS)` triple.
    pub meta: CopyMeta,
    /// Committed updates, in version order (always a gapless prefix of
    /// the global chain — an invariant the engine verifies).
    pub log: Vec<LogEntry>,
    /// Commit records: transactions known locally to have committed,
    /// with the metadata each installed and the counted participant
    /// set. Storing the *per-transaction* metadata (not just a flag)
    /// matters: the termination protocol must hand a blocked counted
    /// participant exactly the commit it missed. Shipping the
    /// responder's newest metadata instead — or shipping the commit to
    /// a prepared site whose vote arrived too late to be counted —
    /// would promote a site to a version whose cardinality never
    /// counted it, growing the set of version-M holders beyond SC and
    /// breaking the quorum intersection argument of Theorem 1 (two
    /// distinct divergences this crate's chaos and empirical harnesses
    /// caught in earlier revisions).
    pub commits: HashMap<TxnId, CommitRecord>,
    /// Prepare record: the in-doubt transaction whose lock must be
    /// re-acquired after a crash, with its coordinator.
    pub prepared: Option<(TxnId, SiteId)>,
    /// Transaction sequence counter. Durable so a recovered coordinator
    /// never reuses an id — reuse would let an old commit record answer
    /// status queries for a new transaction.
    pub next_seq: u64,
}

impl DurableState {
    /// The state every site of a fresh `n`-site file starts from:
    /// version-0 metadata, an empty log, no commit or prepare records.
    /// This is also what an empty data directory recovers to.
    #[must_use]
    pub fn initial(n: usize) -> Self {
        DurableState {
            meta: CopyMeta::initial(n, &LinearOrder::lexicographic(n)),
            log: Vec::new(),
            commits: HashMap::new(),
            prepared: None,
            next_seq: 0,
        }
    }
}

/// Coordinator progress.
#[derive(Debug, Clone)]
enum CoordPhase {
    /// Collecting `(VN, SC, DS)` replies; `replies` includes the
    /// coordinator's own triple, `awaiting` is every peer that has not
    /// answered yet (granted or busy), `busy` every peer that answered
    /// `VoteBusy`.
    Voting {
        replies: Vec<(SiteId, CopyMeta)>,
        awaiting: SiteSet,
        busy: SiteSet,
    },
    /// Waiting for missing log entries from a current subordinate.
    CatchingUp { members: Vec<(SiteId, CopyMeta)> },
    /// A held round ([`SiteActor::start_group_update`]) reached one of
    /// its two exits and parked: `Some(members)` at the commit door,
    /// `None` at the abort door. [`SiteActor::finalize_group`] walks it
    /// through.
    Decided {
        members: Option<Vec<(SiteId, CopyMeta)>>,
    },
}

/// A transaction coordinated by this site.
#[derive(Debug, Clone)]
struct CoordTxn {
    txn: TxnId,
    payload: u64,
    /// Commit pipelining: payloads beyond the first, sealed by the same
    /// round as consecutive log entries. Empty for a plain
    /// [`SiteActor::start_update`] — every single-op code path is
    /// untouched when this is empty.
    extra: Vec<u64>,
    /// Read-only request: needs a distinguished partition and a current
    /// local copy, but commits no new version (paper footnote 5).
    read_only: bool,
    /// Hold the decision: park at whichever exit the round reaches
    /// ([`SiteActor::commit_with`] or [`SiteActor::abort_coordinated`])
    /// and await [`SiteActor::finalize_group`] instead of walking
    /// through. Set only by [`SiteActor::start_group_update`].
    hold: bool,
    phase: CoordPhase,
}

/// Volatile (crash-lost) state.
#[derive(Debug, Clone, Default)]
struct Volatile {
    /// The single file lock: `None` = free.
    lock: Option<TxnId>,
    coordinating: Option<CoordTxn>,
    /// Prepared as subordinate for this transaction of this coordinator.
    prepared: Option<(TxnId, SiteId)>,
    /// Termination-protocol rounds already run for the prepared
    /// transaction; drives the engine's exponential retry backoff.
    /// Volatile on purpose: a restarted site probes eagerly again.
    prepared_rounds: u32,
    /// The harness's peer-suspicion hint ([`SiteActor::set_suspected`]).
    suspected: SiteSet,
}

/// One replica site's state machine for **one object**. A multi-object
/// node hosts many of these — one per [`ObjectId`] — behind a
/// [`ShardedSite`](crate::ShardedSite); locks, commit chains, and
/// prepare records are all shard-local, so transactions on different
/// objects never contend.
pub struct SiteActor {
    id: SiteId,
    /// The object this state machine governs; stamped into every
    /// transaction id it mints so replies and timers route back here.
    object: ObjectId,
    n: usize,
    order: LinearOrder,
    algo: Box<dyn ReplicaControl>,
    durable: DurableState,
    volatile: Volatile,
    /// The benchmark's [`Persistence`] adapter, `None` everywhere else.
    hook: Option<Box<dyn Persistence + Send>>,
}

impl std::fmt::Debug for SiteActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteActor")
            .field("id", &self.id)
            .field("meta", &self.durable.meta)
            .field("lock", &self.volatile.lock)
            .finish_non_exhaustive()
    }
}

impl SiteActor {
    /// A fresh site with version-0 metadata.
    #[must_use]
    pub fn new(id: SiteId, n: usize, algo: Box<dyn ReplicaControl>) -> Self {
        Self::restore(id, n, algo, DurableState::initial(n))
    }

    /// A site rebuilt from recovered durable state — the entry point of
    /// the Section V-C restart path when the state comes off disk
    /// rather than surviving in memory. Volatile state starts empty;
    /// the caller runs [`SiteActor::recover`] next to re-acquire the
    /// in-doubt lock (or run `Make_Current`).
    #[must_use]
    pub fn restore(
        id: SiteId,
        n: usize,
        algo: Box<dyn ReplicaControl>,
        durable: DurableState,
    ) -> Self {
        let order = LinearOrder::lexicographic(n);
        SiteActor {
            id,
            object: ObjectId::ZERO,
            n,
            order,
            algo,
            durable,
            volatile: Volatile::default(),
            hook: None,
        }
    }

    /// Bind this state machine to an object: every transaction id it
    /// mints from now on carries `object`, so a sharded host can route
    /// replies and timers back to this shard. Single-object harnesses
    /// never call this and stay on object 0.
    pub fn set_object(&mut self, object: ObjectId) {
        self.object = object;
    }

    /// The object this state machine governs.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Hint which peers the harness believes are silent. It shortens
    /// the *wait* of a voting phase, never its *decision*: a round may
    /// close before the vote deadline once every unsuspected peer has
    /// answered **and** the replies in hand are distinguished. Suspected
    /// peers are still asked and their timely votes still counted. The
    /// empty set — the default, restored by [`SiteActor::crash`] — is
    /// the identity. Setting it tests nothing by itself: a host that
    /// grew the set calls [`SiteActor::suspicion_grew`] for the rounds
    /// it has open.
    pub fn set_suspected(&mut self, suspected: SiteSet) {
        self.volatile.suspected = suspected;
    }

    /// The suspicion set grew while `txn` may be collecting votes here:
    /// apply the early-close test now instead of at the next vote — a
    /// round whose live votes are all in never sees another one.
    pub fn suspicion_grew(&mut self, txn: TxnId, out: &mut ActionSink) {
        self.close_early(txn, CloseCause::Suspected, out);
    }

    /// Install the benchmark's [`Persistence`] adapter: every
    /// subsequent [`Action::Persist`] is also forwarded to it. Deleted
    /// once the benchmark reads the effects instead.
    pub fn set_persistence(&mut self, hook: Box<dyn Persistence + Send>) {
        self.hook = Some(hook);
    }

    /// The full durable state (what a snapshot captures).
    #[must_use]
    pub fn durable(&self) -> &DurableState {
        &self.durable
    }

    /// [`Persistence::sync`] on the installed adapter, if any.
    pub fn sync_persistence(&mut self) {
        if let Some(hook) = self.hook.as_mut() {
            hook.sync();
        }
    }

    /// The one exit for a durable-state mutation: an [`Action::Persist`]
    /// in `out`, ahead of whatever the caller pushes next.
    fn persist(&mut self, effect: PersistEffect, out: &mut ActionSink) {
        if let Some(hook) = self.hook.as_mut() {
            persist::forward(hook.as_mut(), effect, &self.durable.log);
        }
        out.push(Action::Persist {
            object: self.object,
            effect,
        });
    }

    /// Persist the log entries appended since it held `first_new`
    /// entries, if any were.
    fn persist_entries(&mut self, first_new: usize, out: &mut ActionSink) {
        let upto = self.durable.log.len() as u64;
        if upto > first_new as u64 {
            let after = first_new as u64;
            self.persist(PersistEffect::Entries { after, upto }, out);
        }
    }

    /// The site's id.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The current durable metadata.
    #[must_use]
    pub fn meta(&self) -> CopyMeta {
        self.durable.meta
    }

    /// The committed log.
    #[must_use]
    pub fn log(&self) -> &[LogEntry] {
        &self.durable.log
    }

    /// True if the file lock is currently held.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.volatile.lock.is_some()
    }

    /// True if the site holds a durable prepare record (in-doubt txn).
    #[must_use]
    pub fn is_in_doubt(&self) -> bool {
        self.durable.prepared.is_some()
    }

    /// Termination-protocol rounds already run for the currently
    /// prepared transaction (0 right after preparing or restarting).
    /// The engine feeds this into its backoff computation when a
    /// [`TimerKind::PreparedRetry`] timer is armed.
    #[must_use]
    pub fn prepared_rounds(&self) -> u32 {
        self.volatile.prepared_rounds
    }

    fn fresh_txn(&mut self, out: &mut ActionSink) -> TxnId {
        // Force-written: id reuse after a crash would be unsound.
        self.durable.next_seq += 1;
        self.persist(PersistEffect::Seq(self.durable.next_seq), out);
        TxnId {
            coordinator: self.id,
            seq: self.durable.next_seq,
            object: self.object,
        }
    }

    /// An update (or `Make_Current` no-op) arrives at this site.
    /// Effects are appended to `out`.
    pub fn start_update(&mut self, payload: u64, out: &mut ActionSink) {
        self.start_transaction(payload, false, out);
    }

    /// Commit pipelining: seal `payloads` with ONE vote/catch-up/commit
    /// round, as consecutive log entries in slice order (the version
    /// number advances by `payloads.len()`). A one-element batch is
    /// byte-identical to [`SiteActor::start_update`] — same actions,
    /// same events, same durable mutations. Returns the transaction id,
    /// or `None` if the batch was refused (local lock held — one
    /// [`Action::Resolved`] with [`ResolveReason::LockBusy`] covers the
    /// whole batch) or `payloads` is empty (no effect at all).
    pub fn start_update_batch(&mut self, payloads: &[u64], out: &mut ActionSink) -> Option<TxnId> {
        let (&first, rest) = payloads.split_first()?;
        if self.volatile.lock.is_some() {
            return self.start_transaction(first, false, out);
        }
        let txn = self.start_transaction(first, false, out)?;
        if !rest.is_empty() {
            let coord = self
                .volatile
                .coordinating
                .as_mut()
                .expect("transaction just started");
            coord.extra.extend_from_slice(rest);
            out.push(Action::Event(ProtocolEvent::BatchSealed {
                txn,
                ops: payloads.len() as u32,
            }));
        }
        Some(txn)
    }

    /// Start this file's leg of a multi-file transaction (paper
    /// footnote 2): an ordinary update whose coordinator *holds its
    /// decision*. The round runs voting and catch-up unchanged, then
    /// parks at the exit it reaches with [`Action::DecisionReady`]; the
    /// cross-file transaction manager calls
    /// [`SiteActor::finalize_group`] once every file has decided.
    /// Returns `None` if the local copy is locked.
    pub fn start_group_update(&mut self, payload: u64, out: &mut ActionSink) -> Option<TxnId> {
        let txn = self.start_transaction(payload, false, out)?;
        let coord = self.volatile.coordinating.as_mut();
        coord.expect("transaction just started").hold = true;
        Some(txn)
    }

    /// A read-only request arrives at this site (paper footnote 5:
    /// "Read-only requests may be handled as if they were updates,
    /// except that the version number, update sites cardinality, and
    /// distinguished sites list need not be modified"). The coordinator
    /// still votes (to learn whether it sits in the distinguished
    /// partition) and still catches up (to read current data), but
    /// commits nothing.
    pub fn start_read(&mut self, out: &mut ActionSink) {
        self.start_transaction(0, true, out);
    }

    fn start_transaction(
        &mut self,
        payload: u64,
        read_only: bool,
        out: &mut ActionSink,
    ) -> Option<TxnId> {
        if self.volatile.lock.is_some() {
            // Step i) failed: the local lock manager cannot grant the
            // lock now. The submission is refused (a real system would
            // queue or retry; retries are the workload driver's job).
            let txn = self.fresh_txn(out);
            out.push(Action::Event(ProtocolEvent::Aborted {
                txn,
                reason: ResolveReason::LockBusy,
            }));
            out.push(Action::Resolved {
                txn,
                reason: ResolveReason::LockBusy,
            });
            return None;
        }
        let txn = self.fresh_txn(out);
        self.volatile.lock = Some(txn);
        let mut replies = Vec::with_capacity(self.n);
        replies.push((self.id, self.durable.meta));
        let mut awaiting = SiteSet::all(self.n);
        awaiting.remove(self.id);
        self.volatile.coordinating = Some(CoordTxn {
            txn,
            payload,
            extra: Vec::new(),
            read_only,
            hold: false,
            phase: CoordPhase::Voting {
                replies,
                awaiting,
                busy: SiteSet::EMPTY,
            },
        });
        out.push(Action::Broadcast {
            msg: Message::VoteRequest { txn },
        });
        out.push(Action::SetTimer {
            txn,
            kind: TimerKind::VoteDeadline,
        });
        Some(txn)
    }

    /// Crash: all volatile state is lost. Durable prepare/commit records
    /// survive.
    pub fn crash(&mut self, out: &mut ActionSink) {
        self.volatile = Volatile::default();
        out.push(Action::Event(ProtocolEvent::Crashed));
    }

    /// Recovery (Section V-C): restore the in-doubt lock from the
    /// prepare record and resume the termination protocol; otherwise run
    /// `Make_Current` as a coordinated no-op update.
    ///
    /// `restart_payload` identifies the no-op update `Make_Current`
    /// commits if it finds a distinguished partition.
    pub fn recover(&mut self, restart_payload: u64, out: &mut ActionSink) {
        out.push(Action::Event(ProtocolEvent::Recovered {
            in_doubt: self.durable.prepared.is_some(),
        }));
        if let Some((txn, coordinator)) = self.durable.prepared {
            // Re-acquire the lock the prepare record guards and go
            // straight to the termination protocol.
            self.volatile.lock = Some(txn);
            self.volatile.prepared = Some((txn, coordinator));
            self.termination_round(txn, out);
            return;
        }
        self.start_update(restart_payload, out);
    }

    /// A message arrives. Effects are appended to `out`.
    pub fn handle_message(&mut self, from: SiteId, msg: Message, out: &mut ActionSink) {
        match msg {
            Message::VoteRequest { txn } => self.on_vote_request(from, txn, out),
            Message::VoteGranted { txn, meta, from } => self.on_vote(txn, from, Some(meta), out),
            Message::VoteBusy { txn, from } => self.on_vote(txn, from, None, out),
            Message::CatchUpRequest { txn, after_version } => {
                self.on_catchup_request(from, txn, after_version, out)
            }
            Message::CatchUpReply { txn, entries } => self.on_catchup_reply(txn, entries, out),
            Message::Commit {
                txn,
                meta,
                entries,
                participants,
            } => self.on_commit(txn, meta, entries, participants, out),
            Message::Abort { txn } => self.release(txn, out),
            Message::StatusQuery {
                txn,
                after_version,
                from,
            } => self.on_status_query(from, txn, after_version, out),
            Message::StatusReply { txn, outcome } => self.on_status_reply(txn, outcome, out),
        }
    }

    /// A timer fires.
    pub fn timer_fired(&mut self, txn: TxnId, kind: TimerKind, out: &mut ActionSink) {
        match kind {
            TimerKind::VoteDeadline => {
                if let Some(sites) = self.awaiting(txn).filter(|sites| !sites.is_empty()) {
                    out.push(Action::Hint(Hint::Unanswered {
                        txn,
                        sites,
                        cause: CloseCause::Deadline,
                    }));
                }
                self.decide(txn, out);
            }
            TimerKind::VoteGrace => self.close_early(txn, CloseCause::Grace, out),
            TimerKind::CatchUpDeadline => {
                // Catch-up source unreachable: abort the update.
                let relevant = self.volatile.coordinating.as_ref().is_some_and(|c| {
                    c.txn == txn && matches!(c.phase, CoordPhase::CatchingUp { .. })
                });
                if relevant {
                    self.abort_coordinated(txn, ResolveReason::Timeout, out);
                }
            }
            TimerKind::PreparedRetry => {
                if self.volatile.prepared.is_some_and(|(t, _)| t == txn) {
                    self.termination_round(txn, out);
                }
            }
        }
    }

    // ----- subordinate paths -------------------------------------------

    fn on_vote_request(&mut self, from: SiteId, txn: TxnId, out: &mut ActionSink) {
        match self.volatile.lock {
            Some(holder) if holder != txn => {
                out.push(Action::Event(ProtocolEvent::VoteDenied { txn, holder }));
                out.push(Action::Send {
                    to: from,
                    msg: Message::VoteBusy { txn, from: self.id },
                });
                if self.volatile.coordinating.is_some() {
                    // The lock is held for a round coordinated here:
                    // two coordinators are racing for this object.
                    out.push(Action::Hint(Hint::Rival {
                        txn: holder,
                        site: from,
                    }));
                }
                return;
            }
            _ => {}
        }
        // Grant (idempotently re-grant) the lock; force the prepare
        // record before the vote leaves the site.
        self.volatile.lock = Some(txn);
        self.volatile.prepared = Some((txn, from));
        self.volatile.prepared_rounds = 0;
        self.durable.prepared = Some((txn, from));
        self.persist(PersistEffect::Prepared(txn, from), out);
        out.push(Action::Event(ProtocolEvent::PrepareForced {
            txn,
            coordinator: from,
        }));
        out.push(Action::Event(ProtocolEvent::VoteGranted {
            txn,
            coordinator: from,
        }));
        out.push(Action::Send {
            to: from,
            msg: Message::VoteGranted {
                txn,
                meta: self.durable.meta,
                from: self.id,
            },
        });
        out.push(Action::SetTimer {
            txn,
            kind: TimerKind::PreparedRetry,
        });
    }

    fn on_commit(
        &mut self,
        txn: TxnId,
        meta: CopyMeta,
        entries: Vec<LogEntry>,
        participants: SiteSet,
        out: &mut ActionSink,
    ) {
        self.apply_commit(txn, meta, &entries, participants, out);
        self.release(txn, out);
    }

    /// Release `txn`'s prepare record and lock, if it holds them (the
    /// tail of a commit, and all of an abort).
    fn release(&mut self, txn: TxnId, out: &mut ActionSink) {
        if self.volatile.prepared.is_some_and(|(t, _)| t == txn) {
            self.volatile.prepared = None;
        }
        if self.durable.prepared.is_some_and(|(t, _)| t == txn) {
            self.durable.prepared = None;
            self.persist(PersistEffect::PrepareCleared(txn), out);
        }
        if self.volatile.lock == Some(txn) {
            self.volatile.lock = None;
        }
    }

    /// Apply a commit's effects monotonically (idempotent under
    /// duplicated or reordered delivery).
    fn apply_commit(
        &mut self,
        txn: TxnId,
        meta: CopyMeta,
        entries: &[LogEntry],
        participants: SiteSet,
        out: &mut ActionSink,
    ) {
        let newest = self.absorb(entries, out);
        if meta.version > self.durable.meta.version {
            debug_assert_eq!(
                meta.version, newest,
                "site {}: commit meta v{} but log reaches v{newest}",
                self.id, meta.version
            );
            self.durable.meta = meta;
            self.persist(PersistEffect::Meta(meta), out);
            // Emitted only when the copy actually advances, so a
            // duplicated or termination-protocol-delivered commit never
            // double-counts.
            out.push(Action::Event(ProtocolEvent::CommitForced {
                txn,
                version: meta.version,
            }));
        }
        self.persist(PersistEffect::Committed(txn, meta, participants), out);
        self.durable
            .commits
            .insert(txn, CommitRecord { meta, participants });
    }

    /// Append the entries that continue the log (duplicates and gaps
    /// are skipped) and persist them; returns the newest version.
    fn absorb(&mut self, entries: &[LogEntry], out: &mut ActionSink) -> u64 {
        let first_new = self.durable.log.len();
        let mut newest = self.durable.log.last().map_or(0, |e| e.version);
        for entry in entries {
            if entry.version == newest + 1 {
                self.durable.log.push(*entry);
                newest = entry.version;
            }
        }
        self.persist_entries(first_new, out);
        newest
    }

    /// One round of the cooperative termination protocol: ask everyone
    /// whether the in-doubt transaction committed, and re-arm the retry
    /// timer. "If the coordinator is down and no one knows, stay
    /// blocked."
    fn termination_round(&mut self, txn: TxnId, out: &mut ActionSink) {
        self.volatile.prepared_rounds = self.volatile.prepared_rounds.saturating_add(1);
        out.push(Action::Event(ProtocolEvent::TerminationRound {
            txn,
            round: self.volatile.prepared_rounds,
        }));
        let after_version = self.durable.log.last().map_or(0, |e| e.version);
        out.push(Action::Broadcast {
            msg: Message::StatusQuery {
                txn,
                after_version,
                from: self.id,
            },
        });
        out.push(Action::SetTimer {
            txn,
            kind: TimerKind::PreparedRetry,
        });
    }

    /// The gapless-log invariant (entry at index `i` holds version
    /// `i + 1`; the engine audits it) turns "entries with version in
    /// `(after, upto]`" into a suffix slice — O(len of the answer)
    /// instead of a full-log scan, which made commit fan-out quadratic
    /// in chain length.
    fn log_slice(&self, after: u64, upto: u64) -> &[LogEntry] {
        let len = self.durable.log.len();
        let lo = usize::try_from(after).map_or(len, |v| v.min(len));
        let hi = usize::try_from(upto).map_or(len, |v| v.min(len));
        debug_assert!(self
            .durable
            .log
            .get(lo)
            .map_or(true, |e| e.version == after + 1));
        if lo < hi {
            &self.durable.log[lo..hi]
        } else {
            &[]
        }
    }

    /// All log entries with version greater than `after` (same gapless
    /// invariant as [`Self::log_slice`]).
    fn log_suffix(&self, after: u64) -> &[LogEntry] {
        let len = self.durable.log.len();
        let lo = usize::try_from(after).map_or(len, |v| v.min(len));
        debug_assert!(self
            .durable
            .log
            .get(lo)
            .map_or(true, |e| e.version == after + 1));
        &self.durable.log[lo..]
    }

    fn on_status_query(
        &mut self,
        from: SiteId,
        txn: TxnId,
        after_version: u64,
        out: &mut ActionSink,
    ) {
        let outcome = if let Some(&record) = self.durable.commits.get(&txn) {
            if record.participants.contains(from) {
                // Ship exactly the transaction's own commit: its entries
                // up to *its* version and the metadata *it* installed —
                // precisely the COMMIT message the counted participant
                // missed. Newer versions must not ride along: the
                // inquirer was not counted in their cardinalities.
                StatusOutcome::Committed {
                    meta: record.meta,
                    entries: self.log_slice(after_version, record.meta.version).to_vec(),
                    participants: record.participants,
                }
            } else {
                // The transaction committed but the inquirer's vote was
                // not counted (it arrived after the decision). Release
                // it without the commit: handing an uncounted site the
                // new version would inflate the holder set beyond SC.
                StatusOutcome::Aborted
            }
        } else if txn.coordinator == self.id
            && !self
                .volatile
                .coordinating
                .as_ref()
                .is_some_and(|c| c.txn == txn)
        {
            // Presumed abort: we are the coordinator, the transaction is
            // not in flight, and we hold no commit record — so it can
            // never commit. (While it is still in flight the outcome is
            // genuinely undecided and we must answer Unknown: answering
            // Aborted here would release a prepared subordinate that our
            // own later commit still counts in its quorum — a divergence
            // this crate's chaos tests caught in an earlier revision.)
            StatusOutcome::Aborted
        } else {
            StatusOutcome::Unknown
        };
        out.push(Action::Send {
            to: from,
            msg: Message::StatusReply { txn, outcome },
        });
    }

    fn on_status_reply(&mut self, txn: TxnId, outcome: StatusOutcome, out: &mut ActionSink) {
        if !self.volatile.prepared.is_some_and(|(t, _)| t == txn) {
            return;
        }
        match outcome {
            StatusOutcome::Committed {
                meta,
                entries,
                participants,
            } => self.on_commit(txn, meta, entries, participants, out),
            StatusOutcome::Aborted => self.release(txn, out),
            StatusOutcome::Unknown => {}
        }
    }

    // ----- coordinator paths -------------------------------------------

    /// The peers `txn`'s voting phase is still waiting for, or `None`
    /// when `txn` is not a round this site is collecting votes for.
    fn awaiting(&self, txn: TxnId) -> Option<SiteSet> {
        match self.volatile.coordinating.as_ref() {
            Some(CoordTxn {
                txn: t,
                phase: CoordPhase::Voting { awaiting, .. },
                ..
            }) if *t == txn => Some(*awaiting),
            _ => None,
        }
    }

    /// The one early-close test, for all three of its callers: a vote
    /// just arrived, the suspicion set grew, or the straggler grace ran
    /// out. Closing ahead of the deadline is a timing shortcut, never a
    /// different verdict: it is taken only when the replies in hand
    /// already pass `Is_Distinguished` (and, unless the grace itself
    /// ran out, only suspected peers are silent); otherwise the silent
    /// peers keep the full deadline and this does nothing.
    fn close_early(&mut self, txn: TxnId, cause: CloseCause, out: &mut ActionSink) {
        let Some(CoordTxn {
            txn: t,
            phase: CoordPhase::Voting {
                replies, awaiting, ..
            },
            ..
        }) = self.volatile.coordinating.as_ref()
        else {
            return;
        };
        let silent = *awaiting;
        if *t != txn
            || silent.is_empty()
            || (cause == CloseCause::Suspected && !silent.is_subset(self.volatile.suspected))
        {
            return;
        }
        let view = PartitionView::new(self.n, &self.order, replies)
            .expect("vote replies form a valid view");
        if self.algo.is_distinguished(&view) {
            out.push(Action::Hint(Hint::Unanswered {
                txn,
                sites: silent,
                cause,
            }));
            self.decide(txn, out);
        }
    }

    /// One peer answered the vote request: `Some(meta)` granted, `None`
    /// busy. The round closes when nobody is awaited any more, or —
    /// with a suspicion hint — when only suspected peers are and the
    /// replies in hand are already distinguished.
    fn on_vote(&mut self, txn: TxnId, from: SiteId, vote: Option<CopyMeta>, out: &mut ActionSink) {
        let Some(coord) = self.volatile.coordinating.as_mut() else {
            return;
        };
        if coord.txn != txn {
            return;
        }
        let CoordPhase::Voting {
            replies,
            awaiting,
            busy,
        } = &mut coord.phase
        else {
            return;
        };
        // A duplicate, or a sender we never asked (the wire does not
        // bound the id, and `SiteSet` only holds ids below `n`).
        if from.index() >= self.n || !awaiting.contains(from) {
            return;
        }
        awaiting.remove(from);
        match vote {
            Some(meta) => replies.push((from, meta)),
            None => busy.insert(from),
        }
        if awaiting.is_empty() {
            // Everyone answered: no need to wait for the deadline.
            self.decide(txn, out);
        } else {
            self.close_early(txn, CloseCause::Suspected, out);
        }
    }

    /// End of the voting phase: run `Is_Distinguished` on the collected
    /// replies and move to catch-up or commit (or abort).
    ///
    /// The coordination record is taken out of `self` for the duration so
    /// the view can borrow the reply slice directly — the membership Vec
    /// moves through the phase transitions instead of being cloned.
    fn decide(&mut self, txn: TxnId, out: &mut ActionSink) {
        let Some(mut coord) = self.volatile.coordinating.take() else {
            return;
        };
        if coord.txn != txn {
            self.volatile.coordinating = Some(coord);
            return;
        }
        let empty_phase = CoordPhase::Voting {
            replies: Vec::new(),
            awaiting: SiteSet::EMPTY,
            busy: SiteSet::EMPTY,
        };
        let (members, busy) = match std::mem::replace(&mut coord.phase, empty_phase) {
            CoordPhase::Voting { replies, busy, .. } => (replies, busy),
            other => {
                coord.phase = other;
                self.volatile.coordinating = Some(coord);
                return;
            }
        };
        let view = PartitionView::new(self.n, &self.order, &members)
            .expect("vote replies form a valid view");
        if !self.algo.is_distinguished(&view) {
            self.volatile.coordinating = Some(coord);
            // Same abort either way; only the label says whether a
            // rival's lock stood between this round and a quorum.
            let reason = if busy.is_empty() {
                ResolveReason::NotDistinguished
            } else {
                ResolveReason::Contended
            };
            self.abort_coordinated(txn, reason, out);
            return;
        }
        out.push(Action::Event(ProtocolEvent::QuorumAssembled {
            txn,
            members: view.members(),
        }));
        let my_version = self.durable.meta.version;
        if my_version < view.max_version() {
            // Catch-up phase: fetch missing updates from a current
            // subordinate.
            let source = view
                .current_sites()
                .iter()
                .find(|s| *s != self.id)
                .expect("a current subordinate exists when the coordinator is stale");
            out.push(Action::Event(ProtocolEvent::CatchUpStarted {
                txn,
                source,
                after_version: my_version,
            }));
            coord.phase = CoordPhase::CatchingUp { members };
            self.volatile.coordinating = Some(coord);
            out.push(Action::Send {
                to: source,
                msg: Message::CatchUpRequest {
                    txn,
                    after_version: my_version,
                },
            });
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::CatchUpDeadline,
            });
            return;
        }
        self.commit_with(coord, members, out);
    }

    fn on_catchup_request(
        &mut self,
        from: SiteId,
        txn: TxnId,
        after_version: u64,
        out: &mut ActionSink,
    ) {
        // Served from the durable log; the copy is locked for `txn`, so
        // the suffix is stable.
        let entries = self.log_suffix(after_version).to_vec();
        out.push(Action::Event(ProtocolEvent::CatchUpServed {
            txn,
            to: from,
        }));
        out.push(Action::Send {
            to: from,
            msg: Message::CatchUpReply { txn, entries },
        });
    }

    fn on_catchup_reply(&mut self, txn: TxnId, entries: Vec<LogEntry>, out: &mut ActionSink) {
        let Some(mut coord) = self.volatile.coordinating.take() else {
            return;
        };
        if coord.txn != txn {
            self.volatile.coordinating = Some(coord);
            return;
        }
        let empty_phase = CoordPhase::Voting {
            replies: Vec::new(),
            awaiting: SiteSet::EMPTY,
            busy: SiteSet::EMPTY,
        };
        let members = match std::mem::replace(&mut coord.phase, empty_phase) {
            CoordPhase::CatchingUp { members } => members,
            other => {
                coord.phase = other;
                self.volatile.coordinating = Some(coord);
                return;
            }
        };
        if coord.read_only {
            // The fetched entries carry the value the read needs; the
            // local copy stays untouched (applying them here would grow
            // the version-M holder set beyond SC — see DESIGN.md).
            let _ = entries;
            self.volatile.coordinating = Some(coord);
            self.finish_read(txn, out);
            return;
        }
        // Absorb the missing updates (metadata still advances only at
        // commit).
        self.absorb(&entries, out);
        self.commit_with(coord, members, out);
    }

    /// A held round reached an exit: park it there and tell the
    /// manager which one (`members` is `Some` at the commit door).
    fn park(
        &mut self,
        mut coord: CoordTxn,
        members: Option<Vec<(SiteId, CopyMeta)>>,
        out: &mut ActionSink,
    ) {
        out.push(Action::DecisionReady {
            txn: coord.txn,
            distinguished: members.is_some(),
        });
        coord.phase = CoordPhase::Decided { members };
        self.volatile.coordinating = Some(coord);
    }

    /// The members a held round parked at the commit door with (for the
    /// manager's durable group record); `None` if it parked at the
    /// abort door or has not parked.
    #[must_use]
    pub fn decided_members(&self, txn: TxnId) -> Option<&[(SiteId, CopyMeta)]> {
        let coord = self.volatile.coordinating.as_ref()?;
        if coord.txn != txn {
            return None;
        }
        match &coord.phase {
            CoordPhase::Decided { members } => members.as_deref(),
            _ => None,
        }
    }

    /// The transaction manager's verdict for a group leg: commit (only
    /// valid if this file decided `distinguished`) or abort.
    pub fn finalize_group(&mut self, txn: TxnId, commit: bool, out: &mut ActionSink) {
        let Some(mut coord) = self.volatile.coordinating.take() else {
            return;
        };
        if coord.txn != txn {
            self.volatile.coordinating = Some(coord);
            return;
        }
        coord.hold = false;
        let parked = match &mut coord.phase {
            CoordPhase::Decided { members } => members.take(),
            _ => None,
        };
        match parked {
            Some(members) if commit => self.commit_with(coord, members, out),
            _ => {
                debug_assert!(
                    !commit,
                    "commit verdict on a leg not parked at the commit door"
                );
                self.volatile.coordinating = Some(coord);
                self.abort_coordinated(txn, ResolveReason::NotDistinguished, out);
            }
        }
    }

    /// Crash-recovery redo: re-perform a group commit from the durable
    /// group record (idempotent — a no-op if the commit record already
    /// exists locally).
    pub fn commit_from_record(
        &mut self,
        txn: TxnId,
        payload: u64,
        members: &[(SiteId, CopyMeta)],
        out: &mut ActionSink,
    ) {
        if self.durable.commits.contains_key(&txn) {
            return;
        }
        debug_assert!(
            self.volatile.coordinating.is_none(),
            "redo runs before new work starts"
        );
        self.volatile.lock = Some(txn);
        let coord = CoordTxn {
            txn,
            payload,
            extra: Vec::new(),
            read_only: false,
            hold: false,
            phase: CoordPhase::Voting {
                replies: Vec::new(),
                awaiting: SiteSet::EMPTY,
                busy: SiteSet::EMPTY,
            },
        };
        self.commit_with(coord, members.to_vec(), out);
    }

    /// Release everyone after a served read: no metadata changes, so an
    /// `ABORT` doubles as the unlock message.
    fn finish_read(&mut self, txn: TxnId, out: &mut ActionSink) {
        let Some(coord) = self.volatile.coordinating.take() else {
            return;
        };
        debug_assert!(coord.read_only && coord.txn == txn);
        if self.volatile.lock == Some(txn) {
            self.volatile.lock = None;
        }
        out.push(Action::Event(ProtocolEvent::ReadServed { txn }));
        out.push(Action::Broadcast {
            msg: Message::Abort { txn },
        });
        out.push(Action::Resolved {
            txn,
            reason: ResolveReason::ReadServed,
        });
    }

    /// The commit phase (`Do_Update`): force the commit record, apply
    /// locally, ship `COMMIT` plus each subordinate's missing updates.
    ///
    /// `coord` has already been taken out of `self.volatile.coordinating`
    /// and `members` moved out of its phase — the one membership Vec a
    /// transaction allocates travels here by value, never cloned.
    fn commit_with(
        &mut self,
        coord: CoordTxn,
        members: Vec<(SiteId, CopyMeta)>,
        out: &mut ActionSink,
    ) {
        if coord.hold {
            self.park(coord, Some(members), out);
            return;
        }
        let txn = coord.txn;
        if coord.read_only {
            self.volatile.coordinating = Some(coord);
            self.finish_read(txn, out);
            return;
        }
        let view =
            PartitionView::new(self.n, &self.order, &members).expect("members form a valid view");
        let mut meta = self.algo.commit_meta(&view);
        let first_version = meta.version;
        debug_assert_eq!(
            first_version,
            self.durable.log.last().map_or(0, |e| e.version) + 1,
            "coordinator must be current before committing"
        );
        // Commit pipelining: the round seals every batched payload as a
        // consecutive log entry; SC/DS come from the same view either
        // way, only the version number advances further.
        meta.version = first_version + coord.extra.len() as u64;
        let participants = view.members();
        // Force-write commit record + log entries + metadata, atomically
        // ("an update operation at a site is atomic", Section V-B).
        let first_new = self.durable.log.len();
        self.durable.log.push(LogEntry {
            version: first_version,
            payload: coord.payload,
        });
        for (i, &payload) in coord.extra.iter().enumerate() {
            self.durable.log.push(LogEntry {
                version: first_version + 1 + i as u64,
                payload,
            });
        }
        self.durable.meta = meta;
        self.durable
            .commits
            .insert(txn, CommitRecord { meta, participants });
        self.persist_entries(first_new, out);
        self.persist(PersistEffect::Meta(meta), out);
        self.persist(PersistEffect::Committed(txn, meta, participants), out);
        self.volatile.lock = None;

        out.push(Action::Event(ProtocolEvent::CommitForced {
            txn,
            version: meta.version,
        }));
        out.push(Action::Event(ProtocolEvent::Committed {
            txn,
            version: meta.version,
        }));
        for entry in &self.durable.log[first_new..] {
            out.push(Action::CommitRecorded {
                version: entry.version,
                payload: entry.payload,
                txn,
            });
        }
        out.push(Action::Resolved {
            txn,
            reason: ResolveReason::Committed,
        });
        for &(site, site_meta) in &members {
            if site == self.id {
                continue;
            }
            let entries = self.log_suffix(site_meta.version).to_vec();
            out.push(Action::Send {
                to: site,
                msg: Message::Commit {
                    txn,
                    meta,
                    entries,
                    participants,
                },
            });
        }
    }

    fn abort_coordinated(&mut self, txn: TxnId, reason: ResolveReason, out: &mut ActionSink) {
        let Some(coord) = self.volatile.coordinating.take() else {
            return;
        };
        debug_assert_eq!(coord.txn, txn);
        if coord.hold {
            self.park(coord, None, out);
            return;
        }
        if self.volatile.lock == Some(txn) {
            self.volatile.lock = None;
        }
        out.push(Action::Event(ProtocolEvent::Aborted { txn, reason }));
        out.push(Action::Broadcast {
            msg: Message::Abort { txn },
        });
        out.push(Action::Resolved { txn, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::AlgorithmKind;

    fn site(id: u8, n: usize) -> SiteActor {
        SiteActor::new(SiteId(id), n, AlgorithmKind::Hybrid.instantiate(n))
    }

    fn txn(c: u8, seq: u64) -> TxnId {
        TxnId::new(SiteId(c), seq)
    }

    /// Test shim: run `handle_message` into a fresh sink.
    fn deliver(a: &mut SiteActor, from: SiteId, msg: Message) -> Vec<Action> {
        let mut out = Vec::new();
        a.handle_message(from, msg, &mut out);
        out
    }

    fn update(a: &mut SiteActor, payload: u64) -> Vec<Action> {
        let mut out = Vec::new();
        a.start_update(payload, &mut out);
        out
    }

    #[test]
    fn start_update_broadcasts_vote_request_and_locks() {
        let mut a = site(0, 3);
        let actions = update(&mut a, 100);
        assert!(a.is_locked());
        // The fresh id's sequence number is persisted ahead of the
        // request that carries it.
        assert!(matches!(
            &actions[0],
            Action::Persist {
                effect: PersistEffect::Seq(1),
                ..
            }
        ));
        assert!(matches!(
            &actions[1],
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        ));
        assert!(matches!(
            &actions[2],
            Action::SetTimer {
                kind: TimerKind::VoteDeadline,
                ..
            }
        ));
    }

    #[test]
    fn second_local_update_is_refused_while_locked() {
        let mut a = site(0, 3);
        update(&mut a, 100);
        let actions = update(&mut a, 101);
        assert!(matches!(
            actions[..],
            [
                Action::Persist {
                    effect: PersistEffect::Seq(2),
                    ..
                },
                Action::Event(ProtocolEvent::Aborted {
                    reason: ResolveReason::LockBusy,
                    ..
                }),
                Action::Resolved {
                    reason: ResolveReason::LockBusy,
                    ..
                }
            ]
        ));
    }

    #[test]
    fn vote_request_grants_and_persists_prepare_record() {
        let mut b = site(1, 3);
        let t = txn(0, 1);
        let actions = deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
        assert!(b.is_locked());
        assert!(b.is_in_doubt());
        // The prepare record leaves the kernel ahead of the vote.
        assert_eq!(
            actions[0],
            Action::Persist {
                object: ObjectId::ZERO,
                effect: PersistEffect::Prepared(t, SiteId(0)),
            }
        );
        assert!(matches!(
            actions[1..],
            [
                Action::Event(ProtocolEvent::PrepareForced { .. }),
                Action::Event(ProtocolEvent::VoteGranted { .. }),
                Action::Send {
                    to: SiteId(0),
                    msg: Message::VoteGranted { .. }
                },
                ..
            ]
        ));
    }

    #[test]
    fn busy_subordinate_votes_busy() {
        let mut b = site(1, 3);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
        let actions = deliver(&mut b, SiteId(2), Message::VoteRequest { txn: txn(2, 1) });
        assert!(matches!(
            actions[..],
            [
                Action::Event(ProtocolEvent::VoteDenied { .. }),
                Action::Send {
                    msg: Message::VoteBusy { .. },
                    ..
                }
            ]
        ));
    }

    #[test]
    fn prepare_record_survives_crash_and_restores_lock() {
        let mut b = site(1, 3);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
        b.crash(&mut Vec::new());
        assert!(!b.is_locked(), "volatile lock lost");
        assert!(b.is_in_doubt(), "prepare record is durable");
        let mut actions = Vec::new();
        b.recover(999, &mut actions);
        assert!(b.is_locked(), "recovery re-acquires the in-doubt lock");
        // Recovery resumes the termination protocol, not Make_Current.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: Message::StatusQuery { .. }
            }
        )));
    }

    #[test]
    fn recovery_without_doubt_runs_make_current() {
        let mut b = site(1, 3);
        b.crash(&mut Vec::new());
        let mut actions = Vec::new();
        b.recover(999, &mut actions);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        )));
    }

    #[test]
    fn commit_applies_entries_and_releases() {
        let mut b = site(1, 3);
        let t = txn(0, 1);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
        let meta = CopyMeta {
            version: 1,
            cardinality: 3,
            distinguished: dynvote_core::Distinguished::Trio(dynvote_core::SiteSet::all(3)),
        };
        deliver(
            &mut b,
            SiteId(0),
            Message::Commit {
                txn: t,
                meta,
                entries: vec![LogEntry {
                    version: 1,
                    payload: 100,
                }],
                participants: dynvote_core::SiteSet::all(3),
            },
        );
        assert!(!b.is_locked());
        assert!(!b.is_in_doubt());
        assert_eq!(b.meta().version, 1);
        assert_eq!(b.log().len(), 1);
    }

    #[test]
    fn duplicate_commit_is_idempotent() {
        let mut b = site(1, 3);
        let t = txn(0, 1);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
        let meta = CopyMeta {
            version: 1,
            cardinality: 3,
            distinguished: dynvote_core::Distinguished::Irrelevant,
        };
        let commit = Message::Commit {
            txn: t,
            meta,
            entries: vec![LogEntry {
                version: 1,
                payload: 100,
            }],
            participants: dynvote_core::SiteSet::all(3),
        };
        deliver(&mut b, SiteId(0), commit.clone());
        deliver(&mut b, SiteId(0), commit);
        assert_eq!(b.log().len(), 1);
        assert_eq!(b.meta().version, 1);
    }

    #[test]
    fn coordinator_answers_status_query_with_presumed_abort() {
        let mut a = site(0, 3);
        let unknown = txn(0, 77); // never started (e.g. lost to a crash)
        let actions = deliver(
            &mut a,
            SiteId(1),
            Message::StatusQuery {
                txn: unknown,
                after_version: 0,
                from: SiteId(1),
            },
        );
        assert!(matches!(
            &actions[0],
            Action::Send {
                msg: Message::StatusReply {
                    outcome: StatusOutcome::Aborted,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn bystander_answers_status_query_with_unknown() {
        let mut c = site(2, 3);
        let actions = deliver(
            &mut c,
            SiteId(1),
            Message::StatusQuery {
                txn: txn(0, 1),
                after_version: 0,
                from: SiteId(1),
            },
        );
        assert!(matches!(
            &actions[0],
            Action::Send {
                msg: Message::StatusReply {
                    outcome: StatusOutcome::Unknown,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn group_leg_parks_at_decision_and_finalizes_on_command() {
        let mut a = site(0, 3);
        let mut actions = Vec::new();
        let txn = a.start_group_update(500, &mut actions).expect("lock free");
        assert!(matches!(
            &actions[1],
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        ));
        // Both subordinates grant.
        for sub in [1u8, 2] {
            let meta = a.meta();
            let granted = deliver(
                &mut a,
                SiteId(sub),
                Message::VoteGranted {
                    txn,
                    meta,
                    from: SiteId(sub),
                },
            );
            if sub == 2 {
                // All votes in: the leg must park with DecisionReady,
                // not commit.
                assert!(
                    granted.iter().any(|act| matches!(
                        act,
                        Action::DecisionReady {
                            distinguished: true,
                            ..
                        }
                    )),
                    "{granted:?}"
                );
            }
        }
        assert!(a.is_locked(), "lock held until the manager's verdict");
        assert_eq!(a.meta().version, 0, "nothing committed yet");
        assert_eq!(a.decided_members(txn).map(<[_]>::len), Some(3));
        // Manager says commit.
        let mut actions = Vec::new();
        a.finalize_group(txn, true, &mut actions);
        assert!(actions
            .iter()
            .any(|act| matches!(act, Action::CommitRecorded { version: 1, .. })));
        assert_eq!(a.meta().version, 1);
        assert!(!a.is_locked());
    }

    #[test]
    fn group_leg_abort_releases_everything() {
        let mut a = site(0, 3);
        let mut sink = Vec::new();
        let txn = a.start_group_update(500, &mut sink).unwrap();
        for sub in [1u8, 2] {
            let meta = a.meta();
            deliver(
                &mut a,
                SiteId(sub),
                Message::VoteGranted {
                    txn,
                    meta,
                    from: SiteId(sub),
                },
            );
        }
        let mut actions = Vec::new();
        a.finalize_group(txn, false, &mut actions);
        assert!(actions.iter().any(|act| matches!(
            act,
            Action::Broadcast {
                msg: Message::Abort { .. }
            }
        )));
        assert!(!a.is_locked());
        assert_eq!(a.meta().version, 0);
    }

    #[test]
    fn commit_from_record_is_idempotent() {
        let mut a = site(0, 3);
        let mut sink = Vec::new();
        let txn = a.start_group_update(500, &mut sink).unwrap();
        for sub in [1u8, 2] {
            deliver(
                &mut a,
                SiteId(sub),
                Message::VoteGranted {
                    txn,
                    meta: CopyMeta {
                        version: 0,
                        cardinality: 3,
                        distinguished: dynvote_core::Distinguished::Trio(
                            dynvote_core::SiteSet::all(3),
                        ),
                    },
                    from: SiteId(sub),
                },
            );
        }
        let members = a.decided_members(txn).unwrap().to_vec();
        sink.clear();
        a.finalize_group(txn, true, &mut sink);
        assert_eq!(a.meta().version, 1);
        // Redo after the fact: a no-op.
        let mut redo = Vec::new();
        a.commit_from_record(txn, 500, &members, &mut redo);
        assert!(redo.is_empty());
        assert_eq!(a.meta().version, 1);
        assert_eq!(a.log().len(), 1);
    }

    /// A held leg at a stale coordinator (version 0, both subordinates
    /// at version 1), stopped in its catch-up phase.
    fn held_leg_catching_up() -> (SiteActor, TxnId) {
        let mut a = site(0, 3);
        let mut out = Vec::new();
        let txn = a.start_group_update(500, &mut out).unwrap();
        let newer = CopyMeta {
            version: 1,
            cardinality: 3,
            distinguished: dynvote_core::Distinguished::Trio(SiteSet::all(3)),
        };
        out.clear();
        for sub in [1u8, 2] {
            let vote = Message::VoteGranted {
                txn,
                meta: newer,
                from: SiteId(sub),
            };
            a.handle_message(SiteId(sub), vote, &mut out);
        }
        let kind = TimerKind::CatchUpDeadline;
        assert_eq!(out.last(), Some(&Action::SetTimer { txn, kind }), "{out:?}");
        (a, txn)
    }

    #[test]
    fn stale_held_leg_catches_up_then_parks_at_the_commit_door() {
        let (mut a, txn) = held_leg_catching_up();
        let entries = vec![LogEntry {
            version: 1,
            payload: 77,
        }];
        let out = deliver(&mut a, SiteId(1), Message::CatchUpReply { txn, entries });
        assert_eq!(
            out,
            [
                Action::Persist {
                    object: ObjectId::ZERO,
                    effect: PersistEffect::Entries { after: 0, upto: 1 },
                },
                Action::DecisionReady {
                    txn,
                    distinguished: true
                }
            ]
        );
        // The missing update is absorbed, but nothing is committed and
        // the lock is held until the manager's verdict.
        assert_eq!(a.log().len(), 1);
        assert_eq!(a.meta().version, 0);
        assert!(a.is_locked());
        assert_eq!(a.decided_members(txn).map(<[_]>::len), Some(3));
        let mut out = Vec::new();
        a.finalize_group(txn, true, &mut out);
        assert!(out
            .iter()
            .any(|act| matches!(act, Action::CommitRecorded { version: 2, .. })));
        assert_eq!(a.meta().version, 2);
        assert!(!a.is_locked());
    }

    #[test]
    fn held_leg_whose_catch_up_times_out_parks_at_the_abort_door() {
        let (mut a, txn) = held_leg_catching_up();
        let mut out = Vec::new();
        a.timer_fired(txn, TimerKind::CatchUpDeadline, &mut out);
        assert_eq!(
            out,
            [Action::DecisionReady {
                txn,
                distinguished: false
            }]
        );
        // Parked, not aborted: subordinates stay prepared until the
        // manager has told every leg of the group the same thing.
        assert!(a.is_locked());
        assert_eq!(a.decided_members(txn), None);
        out.clear();
        a.finalize_group(txn, false, &mut out);
        let reason = ResolveReason::NotDistinguished;
        assert_eq!(out.last(), Some(&Action::Resolved { txn, reason }));
        assert!(!a.is_locked());
        assert_eq!(a.meta().version, 0);
    }

    #[test]
    fn batched_update_seals_consecutive_entries_in_one_round() {
        let mut a = site(0, 3);
        let mut out = Vec::new();
        let t = a
            .start_update_batch(&[100, 101, 102], &mut out)
            .expect("lock free");
        // One round regardless of batch size: one sequence number, one
        // broadcast, one timer, and the batch's one seal event.
        assert!(matches!(
            &out[1],
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        ));
        assert_eq!(out.len(), 4);
        assert_eq!(
            out[3],
            Action::Event(ProtocolEvent::BatchSealed { txn: t, ops: 3 })
        );
        for sub in [1u8, 2] {
            deliver(
                &mut a,
                SiteId(sub),
                Message::VoteGranted {
                    txn: t,
                    meta: CopyMeta::initial(3, &LinearOrder::lexicographic(3)),
                    from: SiteId(sub),
                },
            );
        }
        // The round sealed three consecutive versions.
        assert_eq!(a.meta().version, 3);
        assert_eq!(
            a.log()
                .iter()
                .map(|e| (e.version, e.payload))
                .collect::<Vec<_>>(),
            vec![(1, 100), (2, 101), (3, 102)]
        );
        assert!(!a.is_locked());
    }

    #[test]
    fn batch_commit_fans_out_one_record_per_entry_and_one_resolve() {
        let mut a = site(0, 3);
        let mut out = Vec::new();
        let t = a.start_update_batch(&[7, 8], &mut out).unwrap();
        out.clear();
        let meta = a.meta();
        deliver(
            &mut a,
            SiteId(1),
            Message::VoteGranted {
                txn: t,
                meta,
                from: SiteId(1),
            },
        );
        let mut actions = Vec::new();
        a.handle_message(
            SiteId(2),
            Message::VoteGranted {
                txn: t,
                meta: CopyMeta::initial(3, &LinearOrder::lexicographic(3)),
                from: SiteId(2),
            },
            &mut actions,
        );
        let recorded: Vec<(u64, u64)> = actions
            .iter()
            .filter_map(|act| match act {
                Action::CommitRecorded {
                    version, payload, ..
                } => Some((*version, *payload)),
                _ => None,
            })
            .collect();
        assert_eq!(recorded, vec![(1, 7), (2, 8)]);
        let resolves = actions
            .iter()
            .filter(|act| matches!(act, Action::Resolved { .. }))
            .count();
        assert_eq!(resolves, 1, "one resolve covers the whole batch");
        // Every subordinate Commit carries the full two-entry suffix.
        for act in &actions {
            if let Action::Send {
                msg: Message::Commit { entries, meta, .. },
                ..
            } = act
            {
                assert_eq!(entries.len(), 2);
                assert_eq!(meta.version, 2);
            }
        }
    }

    #[test]
    fn one_element_batch_is_byte_identical_to_start_update() {
        let mut plain = site(0, 3);
        let mut batched = site(0, 3);
        let plain_actions = update(&mut plain, 100);
        let mut batched_actions = Vec::new();
        let t = batched.start_update_batch(&[100], &mut batched_actions);
        assert!(t.is_some());
        assert_eq!(plain_actions, batched_actions);
        // Drive both to commit; the full action streams must match.
        let pt = plain_actions
            .iter()
            .find_map(|action| match action {
                Action::Broadcast {
                    msg: Message::VoteRequest { txn },
                } => Some(*txn),
                _ => None,
            })
            .expect("vote request");
        for sub in [1u8, 2] {
            let plain_vote = Message::VoteGranted {
                txn: pt,
                meta: plain.meta(),
                from: SiteId(sub),
            };
            let batched_vote = Message::VoteGranted {
                txn: t.unwrap(),
                meta: batched.meta(),
                from: SiteId(sub),
            };
            let a = deliver(&mut plain, SiteId(sub), plain_vote);
            let b = deliver(&mut batched, SiteId(sub), batched_vote);
            assert_eq!(a, b);
        }
        assert_eq!(plain.meta(), batched.meta());
        assert_eq!(plain.log(), batched.log());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut a = site(0, 3);
        let mut out = Vec::new();
        assert!(a.start_update_batch(&[], &mut out).is_none());
        assert!(out.is_empty());
        assert!(!a.is_locked());
    }

    #[test]
    fn batch_refused_while_locked_resolves_once() {
        let mut a = site(0, 3);
        update(&mut a, 100);
        let mut out = Vec::new();
        assert!(a.start_update_batch(&[1, 2, 3], &mut out).is_none());
        assert!(matches!(
            out[..],
            [
                Action::Persist {
                    effect: PersistEffect::Seq(_),
                    ..
                },
                Action::Event(ProtocolEvent::Aborted { .. }),
                Action::Resolved {
                    reason: ResolveReason::LockBusy,
                    ..
                }
            ]
        ));
    }

    /// The coordinator's commit step persists the entries, the new
    /// metadata and the commit record, in that order, ahead of every
    /// action the commit produces.
    #[test]
    fn commit_record_is_persisted_ahead_of_the_fan_out() {
        let mut a = site(0, 3);
        let t = a.start_update_batch(&[7, 8], &mut Vec::new()).unwrap();
        let mut out = Vec::new();
        for sub in [1u8, 2] {
            let meta = CopyMeta::initial(3, &LinearOrder::lexicographic(3));
            let vote = Message::VoteGranted {
                txn: t,
                meta,
                from: SiteId(sub),
            };
            a.handle_message(SiteId(sub), vote, &mut out);
        }
        let meta = a.meta();
        let participants = SiteSet::all(3);
        let persisted: Vec<PersistEffect> = crate::persist::effects(&out).map(|(_, e)| e).collect();
        assert_eq!(
            persisted,
            [
                PersistEffect::Entries { after: 0, upto: 2 },
                PersistEffect::Meta(meta),
                PersistEffect::Committed(t, meta, participants),
            ]
        );
        // Only the decision's quorum event comes first.
        assert!(matches!(
            out[0],
            Action::Event(ProtocolEvent::QuorumAssembled { .. })
        ));
        assert!(out[1..4]
            .iter()
            .all(|action| matches!(action, Action::Persist { .. })));
        assert!(out[4..]
            .iter()
            .any(|action| matches!(action, Action::Send { .. })));
    }

    #[test]
    fn abort_releases_prepared_subordinate() {
        let mut b = site(1, 3);
        let t = txn(0, 1);
        deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
        deliver(&mut b, SiteId(0), Message::Abort { txn: t });
        assert!(!b.is_locked());
        assert!(!b.is_in_doubt());
    }
}
