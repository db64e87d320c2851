//! Multi-file transactions at the message level — footnote 2, executed.
//!
//! "Any such transaction T will require a distinguished partition for
//! every file in its read and write set." A cross-file update must be
//! **atomic**: either every touched file commits its new version or
//! none does, even if the coordinator crashes between per-file commits.
//!
//! The engine runs one [`SiteActor`] per *(file, site)* pair — each file
//! keeps its own metadata, locks, quorums and per-file protocol — plus a
//! per-site **transaction manager** gluing the legs together:
//!
//! 1. every file leg runs the normal voting (and catch-up) phases, then
//!    parks with [`Action::DecisionReady`];
//! 2. when all legs have decided, the manager force-writes a durable
//!    **group commit record** (files, payload, per-leg participant
//!    views) and only then finalizes each leg — this is the classic
//!    distributed-commit discipline: the single durable write *is* the
//!    atomic commit point;
//! 3. a coordinator that crashes mid-finalization **redoes** the
//!    remaining legs from the group record on recovery (idempotently);
//!    a crash before the record means presumed abort for every leg,
//!    resolved by each file's ordinary termination protocol.
//!
//! The engine's invariant checker verifies, beyond each file's one-copy
//! serializability, cross-file **atomicity**: every durably committed
//! group has all of its legs in the corresponding file ledgers.

use crate::engine::{ConsistencyViolation, LedgerEntry};
use crate::topology::Topology;
use dynvote_core::{
    check_positive, check_probability, check_site_count, AlgorithmKind, ConfigError, CopyMeta,
    SiteId, SiteSet, TimerWheel, VirtualInstant,
};
use dynvote_protocol::{Action, Message, SiteActor, TimerKind, TxnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Identifies a file in a [`MultiFileSimulation`].
pub type FileIdx = usize;

/// A cross-file transaction group id: coordinator site plus a
/// per-site durable sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId {
    /// Coordinating site.
    pub site: SiteId,
    /// Durable per-site sequence.
    pub seq: u64,
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}#{}", self.site, self.seq)
    }
}

/// Configuration of a multi-file simulation.
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// Number of sites (every file is replicated at all of them).
    pub n: usize,
    /// One replica control algorithm per file.
    pub files: Vec<AlgorithmKind>,
    /// One-way message latency.
    pub latency: f64,
    /// Per-file vote-collection deadline.
    pub vote_timeout: f64,
    /// Per-file catch-up deadline.
    pub catchup_timeout: f64,
    /// Prepared subordinate's termination-protocol retry interval.
    pub prepared_retry: f64,
    /// Probability an individual message is lost.
    pub drop_probability: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            n: 5,
            files: vec![AlgorithmKind::Hybrid, AlgorithmKind::Voting],
            latency: 0.01,
            vote_timeout: 0.05,
            catchup_timeout: 0.05,
            prepared_retry: 0.25,
            drop_probability: 0.0,
            seed: 7,
        }
    }
}

impl MultiConfig {
    /// Validate every field; [`MultiFileSimulation::new`] refuses
    /// (panics on) a configuration this rejects, so callers accepting
    /// untrusted parameters should call it first and surface the error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_site_count(self.n)?;
        if self.files.is_empty() {
            return Err(ConfigError::NoFiles);
        }
        check_positive("latency", self.latency)?;
        check_positive("vote_timeout", self.vote_timeout)?;
        check_positive("catchup_timeout", self.catchup_timeout)?;
        check_positive("prepared_retry", self.prepared_retry)?;
        check_probability("drop_probability", self.drop_probability)?;
        Ok(())
    }
}

/// Aggregate statistics of a multi-file run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Groups submitted.
    pub submitted: u64,
    /// Groups committed (all legs).
    pub group_commits: u64,
    /// Groups aborted because some file lacked a distinguished
    /// partition.
    pub group_rejected: u64,
    /// Groups refused because some copy was locked.
    pub lock_busy: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages lost.
    pub messages_dropped: u64,
}

/// Durable group commit record (the atomic commit point).
#[derive(Debug, Clone)]
struct GroupRecord {
    files: Vec<FileIdx>,
    txns: Vec<TxnId>,
    payload: u64,
    members: Vec<Vec<(SiteId, CopyMeta)>>,
}

/// Volatile per-group progress at the coordinator.
#[derive(Debug, Clone)]
struct PendingGroup {
    files: Vec<FileIdx>,
    txns: Vec<TxnId>,
    payload: u64,
    decisions: Vec<Option<bool>>,
}

/// Per-site transaction-manager state.
#[derive(Debug, Default)]
struct SiteManager {
    /// Durable: next group sequence number.
    next_seq: u64,
    /// Durable: committed group records (the redo log).
    committed: HashMap<GroupId, GroupRecord>,
    /// Volatile: groups awaiting decisions.
    pending: HashMap<GroupId, PendingGroup>,
}

#[derive(Debug, Clone, PartialEq)]
enum MEvent {
    Deliver {
        file: FileIdx,
        from: SiteId,
        to: SiteId,
        msg: Message,
    },
    Timer {
        file: FileIdx,
        site: SiteId,
        txn: TxnId,
        kind: TimerKind,
    },
}

/// A discrete-event simulation of several replicated files with atomic
/// cross-file transactions.
pub struct MultiFileSimulation {
    config: MultiConfig,
    topology: Topology,
    /// `actors[file][site]`.
    actors: Vec<Vec<SiteActor>>,
    managers: Vec<SiteManager>,
    timers: TimerWheel<VirtualInstant, MEvent>,
    clock: f64,
    rng: StdRng,
    next_payload: u64,
    /// Per-file omniscient ledgers.
    ledgers: Vec<Vec<Option<LedgerEntry>>>,
    violations: Vec<ConsistencyViolation>,
    /// Which (file, txn) legs the engine saw commit — for the
    /// atomicity audit. (Txn ids are only unique per file: each file's
    /// actor numbers its own transactions.)
    leg_commits: HashMap<(FileIdx, TxnId), u64>,
    stats: MultiStats,
}

impl std::fmt::Debug for MultiFileSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiFileSimulation")
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MultiFileSimulation {
    /// Build a simulation with all sites up.
    ///
    /// # Panics
    ///
    /// If [`MultiConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(config: MultiConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid MultiConfig: {e}");
        }
        let actors = config
            .files
            .iter()
            .map(|&kind| {
                (0..config.n)
                    .map(|i| SiteActor::new(SiteId::new(i), config.n, kind.instantiate(config.n)))
                    .collect()
            })
            .collect();
        MultiFileSimulation {
            topology: Topology::fully_connected(config.n),
            actors,
            managers: (0..config.n).map(|_| SiteManager::default()).collect(),
            timers: TimerWheel::new(),
            clock: 0.0,
            rng: StdRng::seed_from_u64(config.seed),
            next_payload: 0,
            ledgers: vec![Vec::new(); config.files.len()],
            violations: Vec::new(),
            leg_commits: HashMap::new(),
            stats: MultiStats::default(),
            config,
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MultiStats {
        &self.stats
    }

    /// Current simulated time.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// A file's actor at a site (inspection).
    #[must_use]
    pub fn actor(&self, file: FileIdx, site: SiteId) -> &SiteActor {
        &self.actors[file][site.index()]
    }

    /// Impose an explicit partition layout.
    pub fn impose_partitions(&mut self, parts: &[SiteSet]) {
        self.topology.impose_partitions(parts);
    }

    fn schedule(&mut self, delay: f64, event: MEvent) {
        self.timers
            .schedule(VirtualInstant(self.clock + delay), event);
    }

    fn send(&mut self, file: FileIdx, from: SiteId, to: SiteId, msg: Message) {
        self.stats.messages_sent += 1;
        if self.config.drop_probability > 0.0
            && self.rng.gen::<f64>() < self.config.drop_probability
        {
            self.stats.messages_dropped += 1;
            return;
        }
        self.schedule(
            self.config.latency,
            MEvent::Deliver {
                file,
                from,
                to,
                msg,
            },
        );
    }

    /// Submit an atomic update to `files` at `site`. Returns the group
    /// id, or `None` if the site is down.
    pub fn submit_group(&mut self, site: SiteId, files: &[FileIdx]) -> Option<GroupId> {
        assert!(!files.is_empty());
        assert!(files.iter().all(|&f| f < self.config.files.len()));
        if !self.topology.is_up(site) {
            return None;
        }
        self.stats.submitted += 1;
        self.next_payload += 1;
        let payload = self.next_payload;
        self.managers[site.index()].next_seq += 1;
        let group = GroupId {
            site,
            seq: self.managers[site.index()].next_seq,
        };

        // Start every leg; if any copy is locked, abort the ones
        // already started (all-or-nothing from the first instant).
        let mut txns = Vec::with_capacity(files.len());
        let mut staged: Vec<(FileIdx, Vec<Action>)> = Vec::new();
        let mut busy = false;
        for &file in files {
            let mut actions = Vec::new();
            match self.actors[file][site.index()].start_group_update(payload, &mut actions) {
                Some(txn) => {
                    txns.push(txn);
                    staged.push((file, actions));
                }
                None => {
                    busy = true;
                    break;
                }
            }
        }
        if busy {
            for (&file, &txn) in files.iter().zip(&txns) {
                let mut actions = Vec::new();
                self.actors[file][site.index()].finalize_group(txn, false, &mut actions);
                self.apply_actions(file, site, actions);
            }
            self.stats.lock_busy += 1;
            return Some(group);
        }
        self.managers[site.index()].pending.insert(
            group,
            PendingGroup {
                files: files.to_vec(),
                txns,
                payload,
                decisions: vec![None; files.len()],
            },
        );
        for (file, actions) in staged {
            self.apply_actions(file, site, actions);
        }
        Some(group)
    }

    fn apply_actions(&mut self, file: FileIdx, site: SiteId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send(file, site, to, msg),
                Action::Broadcast { msg } => {
                    for i in 0..self.config.n {
                        let to = SiteId::new(i);
                        if to != site {
                            self.send(file, site, to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { txn, kind } => {
                    let delay = match kind {
                        // The kernel never asks for the host-armed grace; were
                        // it to, a grace as long as the deadline is the
                        // identity.
                        TimerKind::VoteDeadline | TimerKind::VoteGrace => self.config.vote_timeout,
                        TimerKind::CatchUpDeadline => self.config.catchup_timeout,
                        TimerKind::PreparedRetry => self.config.prepared_retry,
                    };
                    self.schedule(
                        delay,
                        MEvent::Timer {
                            file,
                            site,
                            txn,
                            kind,
                        },
                    );
                }
                Action::DecisionReady { txn, distinguished } => {
                    self.on_decision(site, file, txn, distinguished);
                }
                Action::CommitRecorded {
                    version,
                    payload,
                    txn,
                } => {
                    self.leg_commits.insert((file, txn), version);
                    let idx = (version - 1) as usize;
                    let ledger = &mut self.ledgers[file];
                    if idx >= ledger.len() {
                        ledger.resize(idx + 1, None);
                    }
                    let entry = LedgerEntry { payload, txn };
                    match ledger[idx] {
                        Some(existing) => {
                            self.violations.push(ConsistencyViolation::DivergentCommit {
                                version,
                                first: existing,
                                second: entry,
                            });
                        }
                        None => ledger[idx] = Some(entry),
                    }
                }
                // The simulator keeps no suspicion set.
                Action::Resolved { .. } | Action::Hint(_) => {}
            }
        }
    }

    /// A leg finished its voting/catch-up phases.
    ///
    /// Legs are identified by their *file* (txn ids repeat across files
    /// — each file's actor numbers its own transactions).
    fn on_decision(&mut self, site: SiteId, file: FileIdx, txn: TxnId, distinguished: bool) {
        let manager = &mut self.managers[site.index()];
        let Some((&group, _)) = manager.pending.iter().find(|(_, p)| {
            p.files
                .iter()
                .zip(&p.txns)
                .any(|(&f, &t)| f == file && t == txn)
        }) else {
            // The group was already resolved (e.g. aborted at
            // submission); release the straggler leg.
            let mut actions = Vec::new();
            self.actors[file][site.index()].finalize_group(txn, false, &mut actions);
            self.apply_actions(file, site, actions);
            return;
        };
        let pending = manager.pending.get_mut(&group).expect("found above");
        let leg = pending
            .files
            .iter()
            .zip(&pending.txns)
            .position(|(&f, &t)| f == file && t == txn)
            .expect("leg belongs to group");
        pending.decisions[leg] = Some(distinguished);
        if pending.decisions.iter().any(Option::is_none) {
            return;
        }
        // Every leg decided: the global verdict.
        let pending = manager.pending.remove(&group).expect("present");
        let commit = pending.decisions.iter().all(|d| d == &Some(true));
        if commit {
            // Gather each leg's participant view and force-write the
            // group record — THE atomic commit point — before touching
            // any leg.
            let members: Vec<Vec<(SiteId, CopyMeta)>> = pending
                .files
                .iter()
                .zip(&pending.txns)
                .map(|(&f, &t)| {
                    self.actors[f][site.index()]
                        .decided_members(t)
                        .expect("decided legs carry members")
                        .to_vec()
                })
                .collect();
            self.managers[site.index()].committed.insert(
                group,
                GroupRecord {
                    files: pending.files.clone(),
                    txns: pending.txns.clone(),
                    payload: pending.payload,
                    members,
                },
            );
            self.stats.group_commits += 1;
            for (&f, &t) in pending.files.iter().zip(&pending.txns) {
                let mut actions = Vec::new();
                self.actors[f][site.index()].finalize_group(t, true, &mut actions);
                self.apply_actions(f, site, actions);
            }
        } else {
            self.stats.group_rejected += 1;
            for (&f, &t) in pending.files.iter().zip(&pending.txns) {
                let mut actions = Vec::new();
                self.actors[f][site.index()].finalize_group(t, false, &mut actions);
                self.apply_actions(f, site, actions);
            }
        }
    }

    /// Crash a site: every file's volatile state and the manager's
    /// pending groups are lost; durable group records survive.
    pub fn crash_site(&mut self, site: SiteId) {
        if self.topology.is_up(site) {
            self.topology.crash(site);
            for file in 0..self.config.files.len() {
                self.actors[file][site.index()].crash();
            }
            self.managers[site.index()].pending.clear();
        }
    }

    /// Recover a site: redo any durably committed group whose legs did
    /// not all finish, then run each file's ordinary restart protocol.
    pub fn recover_site(&mut self, site: SiteId) {
        if self.topology.is_up(site) {
            return;
        }
        self.topology.recover(site);
        // REDO pass, before any new work: finish every durably
        // committed group (idempotent per leg).
        let records: Vec<(GroupId, GroupRecord)> = self.managers[site.index()]
            .committed
            .iter()
            .map(|(g, r)| (*g, r.clone()))
            .collect();
        for (_, record) in records {
            for ((&file, &txn), members) in
                record.files.iter().zip(&record.txns).zip(&record.members)
            {
                let mut actions = Vec::new();
                self.actors[file][site.index()].commit_from_record(
                    txn,
                    record.payload,
                    members,
                    &mut actions,
                );
                self.apply_actions(file, site, actions);
            }
        }
        // Ordinary per-file restart (prepared-lock restoration or
        // Make_Current).
        for file in 0..self.config.files.len() {
            self.next_payload += 1;
            let payload = self.next_payload;
            let mut actions = Vec::new();
            self.actors[file][site.index()].recover(payload, &mut actions);
            self.apply_actions(file, site, actions);
        }
    }

    /// Process one event; false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((when, event)) = self.timers.pop_next() else {
            return false;
        };
        self.clock = when.0;
        match event {
            MEvent::Deliver {
                file,
                from,
                to,
                msg,
            } => {
                if self.topology.connected(from, to) {
                    let mut actions = Vec::new();
                    self.actors[file][to.index()].handle_message(from, msg, &mut actions);
                    self.apply_actions(file, to, actions);
                } else {
                    self.stats.messages_dropped += 1;
                }
            }
            MEvent::Timer {
                file,
                site,
                txn,
                kind,
            } => {
                if self.topology.is_up(site) {
                    let mut actions = Vec::new();
                    self.actors[file][site.index()].timer_fired(txn, kind, &mut actions);
                    self.apply_actions(file, site, actions);
                }
            }
        }
        true
    }

    /// Drain pending events (bounded, like [`crate::Simulation::quiesce`]).
    pub fn quiesce(&mut self) {
        let deadline = self.clock + 10_000.0 * self.config.prepared_retry;
        let mut guard = 0u64;
        while let Some(&VirtualInstant(t)) = self.timers.next_deadline() {
            if t > deadline || guard > 10_000_000 {
                break;
            }
            guard += 1;
            self.step();
        }
    }

    /// Verify per-file consistency plus cross-file atomicity.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<ConsistencyViolation> {
        let mut violations = self.violations.clone();
        for (file, ledger) in self.ledgers.iter().enumerate() {
            for (i, slot) in ledger.iter().enumerate() {
                if slot.is_none() {
                    violations.push(ConsistencyViolation::VersionGap {
                        missing: (i + 1) as u64,
                    });
                }
            }
            for actor in &self.actors[file] {
                for (i, entry) in actor.log().iter().enumerate() {
                    let expected = (i + 1) as u64;
                    let chain = ledger.get(i).copied().flatten();
                    if entry.version != expected
                        || chain.map_or(true, |c| c.payload != entry.payload)
                    {
                        violations.push(ConsistencyViolation::LogMismatch {
                            site: actor.id(),
                            version: expected,
                        });
                        break;
                    }
                }
                if actor.meta().version != actor.log().last().map_or(0, |e| e.version) {
                    violations.push(ConsistencyViolation::MetaLogSkew { site: actor.id() });
                }
            }
        }
        violations
    }

    /// Cross-file atomicity audit: every durably committed group must
    /// have *all* of its legs committed in the file ledgers. Returns
    /// the offending group ids (empty = atomic).
    #[must_use]
    pub fn check_atomicity(&self) -> Vec<GroupId> {
        let mut bad = Vec::new();
        for manager in &self.managers {
            for (&group, record) in &manager.committed {
                let all_legs = record
                    .txns
                    .iter()
                    .zip(&record.files)
                    .all(|(&txn, &file)| self.leg_commits.contains_key(&(file, txn)));
                if !all_legs {
                    bad.push(group);
                }
            }
        }
        bad.sort();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> SiteSet {
        SiteSet::parse(s).unwrap()
    }

    fn sim() -> MultiFileSimulation {
        MultiFileSimulation::new(MultiConfig::default())
    }

    #[test]
    fn healthy_group_commits_both_files() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_commits, 1);
        for file in 0..2 {
            for i in 0..5 {
                assert_eq!(
                    s.actor(file, SiteId(i)).meta().version,
                    1,
                    "file {file} site {i}"
                );
            }
        }
        assert!(s.check_invariants().is_empty());
        assert!(s.check_atomicity().is_empty());
    }

    #[test]
    fn one_starved_file_aborts_the_whole_group() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        // Partition so the hybrid file (0) has a quorum at AB (its
        // cardinality shrank? no — one commit happened with all 5, so
        // file 0 needs 3 of 5) and voting file (1) needs 3 of 5 too:
        // give AB only — both legs refuse. Then ABC — both accept.
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_rejected, 1);
        assert_eq!(s.stats().group_commits, 1);
        // Now shrink file 0's quorum alone (single-leg group on file 0
        // via ABC), then ask for a cross-file group from AB: file 0
        // says yes (2 of 3), file 1 says no (2 of 5) -> atomic abort.
        s.impose_partitions(&[set("ABC"), set("DE")]);
        s.submit_group(SiteId(0), &[0]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_commits, 2);
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_rejected, 2);
        // File 0's version must NOT have advanced (atomicity).
        assert_eq!(s.actor(0, SiteId(0)).meta().version, 2);
        assert!(s.check_invariants().is_empty());
        assert!(s.check_atomicity().is_empty());
    }

    #[test]
    fn coordinator_crash_after_group_record_redoes_on_recovery() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        // Start a group and run *just* past the decision point: with
        // latency 0.01 the votes return by ~0.02 and both legs decide
        // (all replies in), writing the group record and sending the
        // COMMIT messages; crash A before those deliver.
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.run_past_decisions();
        let committed_before = s.stats().group_commits;
        s.crash_site(SiteId(0));
        s.quiesce();
        if committed_before == 2 {
            // The group record is durable: recovery must redo both legs
            // and the subordinates must converge.
            s.recover_site(SiteId(0));
            s.quiesce();
            for file in 0..2 {
                for i in 0..5 {
                    assert!(
                        s.actor(file, SiteId(i)).meta().version >= 2,
                        "file {file} site {i} missed the redone commit"
                    );
                }
            }
            assert!(s.check_atomicity().is_empty());
            assert!(s.check_invariants().is_empty());
        }
    }

    #[test]
    fn lock_busy_group_aborts_cleanly() {
        let mut s = sim();
        // Two groups race at the same coordinator: the second finds the
        // locks held and aborts without touching anything.
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().lock_busy, 1);
        assert_eq!(s.stats().group_commits, 1);
        assert!(s.check_invariants().is_empty());
        assert!(s.check_atomicity().is_empty());
    }

    #[test]
    fn per_file_quorums_evolve_independently() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[0, 1]).unwrap();
        s.quiesce();
        // Shrink the hybrid file's quorum to ABC via single-file groups.
        s.impose_partitions(&[set("ABC"), set("DE")]);
        s.submit_group(SiteId(0), &[0]).unwrap();
        s.quiesce();
        // AB: file 0 (hybrid, quorum base 3) accepts; file 1 (static
        // voting) refuses.
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[0]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_commits, 3);
        s.submit_group(SiteId(0), &[1]).unwrap();
        s.quiesce();
        assert_eq!(s.stats().group_rejected, 1);
        assert!(s.check_invariants().is_empty());
    }

    impl MultiFileSimulation {
        /// Test helper: run until just past the decision/commit point of
        /// an in-flight group (two latency hops plus a hair), without
        /// delivering the outgoing COMMIT messages.
        fn run_past_decisions(&mut self) {
            let deadline = self.clock + 2.0 * self.config.latency + 1e-6;
            while let Some(&VirtualInstant(t)) = self.timers.next_deadline() {
                if t > deadline {
                    break;
                }
                self.step();
            }
            self.clock = self.clock.max(deadline);
        }
    }

    #[test]
    fn random_chaos_preserves_atomicity() {
        for seed in 0..3 {
            let mut s = MultiFileSimulation::new(MultiConfig {
                drop_probability: 0.1,
                seed,
                ..MultiConfig::default()
            });
            s.submit_group(SiteId(0), &[0, 1]).unwrap();
            s.quiesce();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for round in 0..60u64 {
                let site = SiteId::new(rng.gen_range(0..5));
                match round % 6 {
                    0 => {
                        s.crash_site(site);
                    }
                    1 => {
                        for i in 0..5 {
                            s.recover_site(SiteId::new(i));
                        }
                    }
                    _ => {
                        let files: &[FileIdx] = if rng.gen_bool(0.5) {
                            &[0, 1]
                        } else {
                            &[rng.gen_range(0..2)]
                        };
                        s.submit_group(site, files);
                    }
                }
                s.quiesce();
            }
            for i in 0..5 {
                s.recover_site(SiteId::new(i));
            }
            s.quiesce();
            assert!(
                s.check_invariants().is_empty(),
                "seed {seed}: {:?}",
                s.check_invariants()
            );
            assert!(
                s.check_atomicity().is_empty(),
                "seed {seed}: partial groups {:?}",
                s.check_atomicity()
            );
            assert!(s.stats().group_commits > 0, "seed {seed}");
        }
    }
}
