//! Structured protocol observability.
//!
//! Every protocol decision a [`SiteActor`](crate::SiteActor) makes
//! leaves it as an [`Action::Event`](crate::Action::Event) in the
//! caller-owned action buffer, beside its sends and persist effects.
//! The kernel keeps no sink and no shared state: the host that drains
//! the buffer counts each event into a per-kind tally row it owns (the
//! simulator's [`EventTallies`], a live node's row) and, with `--trace`,
//! prints it as `[site i] {event}`.
//!
//! Emission happens at the protocol's decision points, not its message
//! edges, so the vocabulary is substrate-independent: the same scripted
//! scenario produces the same tallies on the discrete-event simulator
//! and the live cluster — except [`EventKind::TerminationRound`], whose
//! count depends on how wall-clock retry backoff races the vote
//! deadline; [`EventTallies::deterministic`] masks it for comparisons.

use crate::message::TxnId;
use crate::site::ResolveReason;
use dynvote_core::{SiteId, SiteSet};

/// One observable protocol decision at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// This site granted its vote (and force-wrote a prepare record).
    VoteGranted {
        /// The transaction voted for.
        txn: TxnId,
        /// The requesting coordinator.
        coordinator: SiteId,
    },
    /// This site denied a vote because its copy is locked.
    VoteDenied {
        /// The refused transaction.
        txn: TxnId,
        /// The transaction currently holding the lock.
        holder: TxnId,
    },
    /// The coordinator's responders form a distinguished partition.
    QuorumAssembled {
        /// The transaction being coordinated.
        txn: TxnId,
        /// The coordinator plus every granted voter.
        members: SiteSet,
    },
    /// A stale coordinator asked a current member for missed updates.
    CatchUpStarted {
        /// The transaction being coordinated.
        txn: TxnId,
        /// The member serving the catch-up.
        source: SiteId,
        /// The coordinator's current version.
        after_version: u64,
    },
    /// This site served a catch-up request from its log.
    CatchUpServed {
        /// The transaction being coordinated.
        txn: TxnId,
        /// The stale coordinator.
        to: SiteId,
    },
    /// The coordinator committed (version advanced, quorum updated).
    Committed {
        /// The committed transaction.
        txn: TxnId,
        /// The new version number.
        version: u64,
    },
    /// The coordinator aborted.
    Aborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Why it aborted.
        reason: ResolveReason,
    },
    /// A read-only request was served (no metadata modification).
    ReadServed {
        /// The read transaction.
        txn: TxnId,
    },
    /// A prepared subordinate ran a cooperative termination-protocol
    /// round (broadcast a status query).
    TerminationRound {
        /// The in-doubt transaction.
        txn: TxnId,
        /// How many rounds this site has now run for it.
        round: u32,
    },
    /// A prepare record was force-written to the durable log.
    PrepareForced {
        /// The prepared transaction.
        txn: TxnId,
        /// Its coordinator.
        coordinator: SiteId,
    },
    /// A commit record was force-written and the local copy advanced.
    CommitForced {
        /// The committed transaction.
        txn: TxnId,
        /// The version the local copy advanced to.
        version: u64,
    },
    /// The site crashed (volatile state lost; durable state kept).
    Crashed,
    /// The site restarted.
    Recovered {
        /// Whether a durable prepare record left it in doubt.
        in_doubt: bool,
    },
    /// Commit pipelining: a coordinator sealed a multi-op batch into
    /// one quorum round. Never emitted for a one-op round, so the
    /// single-op event stream is unchanged.
    BatchSealed {
        /// The transaction carrying the batch.
        txn: TxnId,
        /// Operations sealed by the round (always ≥ 2).
        ops: u32,
    },
}

impl ProtocolEvent {
    /// The fieldless kind of this event, for tallying.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            ProtocolEvent::VoteGranted { .. } => EventKind::VoteGranted,
            ProtocolEvent::VoteDenied { .. } => EventKind::VoteDenied,
            ProtocolEvent::QuorumAssembled { .. } => EventKind::QuorumAssembled,
            ProtocolEvent::CatchUpStarted { .. } => EventKind::CatchUpStarted,
            ProtocolEvent::CatchUpServed { .. } => EventKind::CatchUpServed,
            ProtocolEvent::Committed { .. } => EventKind::Committed,
            ProtocolEvent::Aborted { .. } => EventKind::Aborted,
            ProtocolEvent::ReadServed { .. } => EventKind::ReadServed,
            ProtocolEvent::TerminationRound { .. } => EventKind::TerminationRound,
            ProtocolEvent::PrepareForced { .. } => EventKind::PrepareForced,
            ProtocolEvent::CommitForced { .. } => EventKind::CommitForced,
            ProtocolEvent::Crashed => EventKind::Crashed,
            ProtocolEvent::Recovered { .. } => EventKind::Recovered,
            ProtocolEvent::BatchSealed { .. } => EventKind::BatchSealed,
        }
    }
}

impl std::fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolEvent::VoteGranted { txn, coordinator } => {
                write!(f, "VOTE {txn} granted to coordinator {coordinator}")
            }
            ProtocolEvent::VoteDenied { txn, holder } => {
                write!(f, "VOTE {txn} denied (lock held by {holder})")
            }
            ProtocolEvent::QuorumAssembled { txn, members } => {
                write!(f, "QUORUM {txn} assembled from {members}")
            }
            ProtocolEvent::CatchUpStarted {
                txn,
                source,
                after_version,
            } => write!(f, "CATCH-UP {txn} from {source} after v{after_version}"),
            ProtocolEvent::CatchUpServed { txn, to } => {
                write!(f, "CATCH-UP {txn} served to {to}")
            }
            ProtocolEvent::Committed { txn, version } => {
                write!(f, "COMMIT {txn} v{version}")
            }
            ProtocolEvent::Aborted { txn, reason } => write!(f, "ABORT {txn} ({reason:?})"),
            ProtocolEvent::ReadServed { txn } => write!(f, "READ {txn} served"),
            ProtocolEvent::TerminationRound { txn, round } => {
                write!(f, "TERMINATION {txn} round {round}")
            }
            ProtocolEvent::PrepareForced { txn, coordinator } => {
                write!(f, "FORCE-WRITE prepare {txn} (coordinator {coordinator})")
            }
            ProtocolEvent::CommitForced { txn, version } => {
                write!(f, "FORCE-WRITE commit {txn} v{version}")
            }
            ProtocolEvent::Crashed => write!(f, "CRASH"),
            ProtocolEvent::Recovered { in_doubt } => {
                write!(
                    f,
                    "RECOVER ({})",
                    if *in_doubt { "in doubt" } else { "clean" }
                )
            }
            ProtocolEvent::BatchSealed { txn, ops } => {
                write!(f, "BATCH {txn} sealed {ops} ops")
            }
        }
    }
}

/// The fieldless vocabulary of [`ProtocolEvent`], for indexing tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// A vote was granted.
    VoteGranted,
    /// A vote was denied.
    VoteDenied,
    /// A distinguished quorum was assembled.
    QuorumAssembled,
    /// A stale coordinator started catching up.
    CatchUpStarted,
    /// A member served a catch-up from its log.
    CatchUpServed,
    /// A coordinator committed.
    Committed,
    /// A coordinator aborted.
    Aborted,
    /// A read was served.
    ReadServed,
    /// A termination-protocol round ran.
    TerminationRound,
    /// A prepare record was force-written.
    PrepareForced,
    /// A commit record was force-written.
    CommitForced,
    /// A site crashed.
    Crashed,
    /// A site recovered.
    Recovered,
    /// A multi-op batch was sealed into one quorum round.
    BatchSealed,
}

impl EventKind {
    /// Number of kinds (the width of a tally row).
    pub const COUNT: usize = 14;

    /// Every kind, in tally-column order. `BatchSealed` is appended at
    /// the end so pre-pipelining tally rows (wire replies, committed
    /// reports) keep their column indices.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::VoteGranted,
        EventKind::VoteDenied,
        EventKind::QuorumAssembled,
        EventKind::CatchUpStarted,
        EventKind::CatchUpServed,
        EventKind::Committed,
        EventKind::Aborted,
        EventKind::ReadServed,
        EventKind::TerminationRound,
        EventKind::PrepareForced,
        EventKind::CommitForced,
        EventKind::Crashed,
        EventKind::Recovered,
        EventKind::BatchSealed,
    ];

    /// A stable snake_case name (JSON report keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::VoteGranted => "vote_granted",
            EventKind::VoteDenied => "vote_denied",
            EventKind::QuorumAssembled => "quorum_assembled",
            EventKind::CatchUpStarted => "catch_up_started",
            EventKind::CatchUpServed => "catch_up_served",
            EventKind::Committed => "committed",
            EventKind::Aborted => "aborted",
            EventKind::ReadServed => "read_served",
            EventKind::TerminationRound => "termination_round",
            EventKind::PrepareForced => "prepare_forced",
            EventKind::CommitForced => "commit_forced",
            EventKind::Crashed => "crashed",
            EventKind::Recovered => "recovered",
            EventKind::BatchSealed => "batch_sealed",
        }
    }
}

/// Per-site, per-kind event tallies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventTallies {
    per_site: Vec<[u64; EventKind::COUNT]>,
}

impl EventTallies {
    /// The count of `kind` at `site` (0 for never-seen sites).
    #[must_use]
    pub fn count(&self, site: SiteId, kind: EventKind) -> u64 {
        self.per_site
            .get(site.index())
            .map_or(0, |row| row[kind as usize])
    }

    /// The count of `kind` summed over every site.
    #[must_use]
    pub fn total(&self, kind: EventKind) -> u64 {
        self.per_site.iter().map(|row| row[kind as usize]).sum()
    }

    /// One site's full tally row, in [`EventKind::ALL`] column order.
    #[must_use]
    pub fn row(&self, site: SiteId) -> [u64; EventKind::COUNT] {
        self.per_site
            .get(site.index())
            .copied()
            .unwrap_or([0; EventKind::COUNT])
    }

    /// Install one site's row (e.g. decoded from a wire reply).
    pub fn set_row(&mut self, site: SiteId, row: [u64; EventKind::COUNT]) {
        *self.row_mut(site) = row;
    }

    /// Count one event of `kind` at `site`.
    pub fn record(&mut self, site: SiteId, kind: EventKind) {
        self.row_mut(site)[kind as usize] += 1;
    }

    fn row_mut(&mut self, site: SiteId) -> &mut [u64; EventKind::COUNT] {
        if self.per_site.len() <= site.index() {
            self.per_site
                .resize(site.index() + 1, [0; EventKind::COUNT]);
        }
        &mut self.per_site[site.index()]
    }

    /// A copy with the wall-clock-dependent kinds zeroed, suitable for
    /// cross-substrate equality: termination-round counts depend on how
    /// retry backoff races the vote deadline, so two correct substrates
    /// legitimately differ there.
    #[must_use]
    pub fn deterministic(&self) -> EventTallies {
        let mut copy = self.clone();
        for row in &mut copy.per_site {
            row[EventKind::TerminationRound as usize] = 0;
        }
        copy
    }
}

impl std::fmt::Display for EventTallies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for kind in EventKind::ALL {
            let total = self.total(kind);
            if total > 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}={total}", kind.name())?;
                first = false;
            }
        }
        if first {
            write!(f, "(no events)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    #[test]
    fn every_variant_maps_to_its_kind() {
        let events = [
            ProtocolEvent::VoteGranted {
                txn: txn(1),
                coordinator: SiteId(0),
            },
            ProtocolEvent::VoteDenied {
                txn: txn(1),
                holder: txn(2),
            },
            ProtocolEvent::QuorumAssembled {
                txn: txn(1),
                members: SiteSet::all(3),
            },
            ProtocolEvent::CatchUpStarted {
                txn: txn(1),
                source: SiteId(1),
                after_version: 4,
            },
            ProtocolEvent::CatchUpServed {
                txn: txn(1),
                to: SiteId(2),
            },
            ProtocolEvent::Committed {
                txn: txn(1),
                version: 5,
            },
            ProtocolEvent::Aborted {
                txn: txn(1),
                reason: ResolveReason::NotDistinguished,
            },
            ProtocolEvent::ReadServed { txn: txn(1) },
            ProtocolEvent::TerminationRound {
                txn: txn(1),
                round: 2,
            },
            ProtocolEvent::PrepareForced {
                txn: txn(1),
                coordinator: SiteId(0),
            },
            ProtocolEvent::CommitForced {
                txn: txn(1),
                version: 5,
            },
            ProtocolEvent::Crashed,
            ProtocolEvent::Recovered { in_doubt: true },
            ProtocolEvent::BatchSealed {
                txn: txn(1),
                ops: 8,
            },
        ];
        assert_eq!(events.len(), EventKind::COUNT);
        for (event, kind) in events.iter().zip(EventKind::ALL) {
            assert_eq!(event.kind(), kind);
            // Every event renders without panicking and non-trivially.
            assert!(!event.to_string().is_empty());
        }
    }

    #[test]
    fn tallies_count_per_site_and_kind() {
        let mut tallies = EventTallies::default();
        tallies.record(SiteId(2), EventKind::Committed);
        tallies.record(SiteId(2), EventKind::Committed);
        tallies.record(SiteId(0), EventKind::Crashed);
        assert_eq!(tallies.count(SiteId(2), EventKind::Committed), 2);
        assert_eq!(tallies.count(SiteId(0), EventKind::Crashed), 1);
        assert_eq!(tallies.count(SiteId(1), EventKind::Committed), 0);
        assert_eq!(tallies.count(SiteId(9), EventKind::Committed), 0);
        assert_eq!(tallies.total(EventKind::Committed), 2);
        assert_eq!(tallies.to_string(), "committed=2 crashed=1");
    }

    #[test]
    fn deterministic_masks_only_termination_rounds() {
        let mut tallies = EventTallies::default();
        tallies.record(SiteId(1), EventKind::TerminationRound);
        tallies.record(SiteId(1), EventKind::CommitForced);
        let masked = tallies.deterministic();
        assert_eq!(masked.count(SiteId(1), EventKind::TerminationRound), 0);
        assert_eq!(masked.count(SiteId(1), EventKind::CommitForced), 1);
    }

    #[test]
    fn rows_round_trip_through_set_row() {
        let mut original = EventTallies::default();
        original.record(SiteId(3), EventKind::Crashed);
        let mut rebuilt = EventTallies::default();
        for i in 0..4 {
            rebuilt.set_row(SiteId(i), original.row(SiteId(i)));
        }
        assert_eq!(rebuilt, original);
    }
}
