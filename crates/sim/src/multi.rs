//! Multi-file transactions at the message level — footnote 2, executed.
//!
//! "Any such transaction T will require a distinguished partition for
//! every file in its read and write set." A cross-file update must be
//! **atomic**: either every touched file commits its new version or
//! none does, even if the coordinator crashes between per-file commits.
//!
//! Files are the objects of a [`Simulation::with_files`] run: each keeps
//! its own metadata, locks, quorums and per-file algorithm, and the
//! engine delivers, times, drops and audits their messages like any
//! other. This module adds only what is *about groups* — a per-site
//! **transaction manager** gluing the legs together:
//!
//! 1. every file leg is an ordinary update whose coordinator holds its
//!    decision (`Input::Update` with `hold`): it runs the normal
//!    voting (and catch-up) phases, then parks with
//!    `Action::DecisionReady`;
//! 2. when all legs have decided, the manager force-writes a durable
//!    **group commit record** (payload and, per leg, the transaction —
//!    which names its file — and the participant view) and only then
//!    finalizes each leg — the classic distributed-commit discipline:
//!    the single durable write *is* the atomic commit point;
//! 3. a coordinator that crashes mid-finalization **redoes** the
//!    remaining legs from the group record on recovery (idempotently);
//!    a crash before the record means presumed abort for every leg,
//!    resolved by each file's ordinary termination protocol.
//!
//! [`Simulation::check_atomicity`] audits, beyond per-file one-copy
//! serializability, that every durably committed group has all of its
//! legs in the file ledgers.

use crate::engine::Simulation;
use dynvote_core::{CopyMeta, SiteId};
use dynvote_protocol::{Input, ObjectId, TxnId};
use std::collections::BTreeMap;

/// A cross-file transaction group id: coordinator site plus a
/// per-site durable sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId {
    /// Coordinating site.
    pub site: SiteId,
    /// Durable per-site sequence.
    pub seq: u64,
}

/// Group outcomes of a run. Each leg is also booked in
/// [`crate::SimStats`] as the single-file transaction it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Groups submitted.
    pub submitted: u64,
    /// Groups committed (all legs).
    pub group_commits: u64,
    /// Groups aborted because some file lacked a distinguished
    /// partition.
    pub group_rejected: u64,
    /// Groups refused because some copy was locked.
    pub lock_busy: u64,
}

/// Durable group commit record (the atomic commit point).
#[derive(Debug)]
struct GroupRecord {
    txns: Vec<TxnId>,
    payload: u64,
    members: Vec<Vec<(SiteId, CopyMeta)>>,
}

/// Volatile per-group progress at the coordinator.
#[derive(Debug)]
struct PendingGroup {
    txns: Vec<TxnId>,
    payload: u64,
    /// Legs that have not parked yet.
    undecided: usize,
    /// No leg has parked at its abort door so far.
    commit: bool,
}

/// Every site's transaction manager (a [`GroupId`] names its site),
/// plus the decisions the engine queued while draining a kernel call's
/// actions. Ordered maps: redo order feeds the engine's PRNG (message
/// loss), so it must not depend on hashing.
#[derive(Debug, Default)]
pub(crate) struct GroupManager {
    /// Durable, per site: last group sequence number.
    last_seq: BTreeMap<SiteId, u64>,
    /// Durable: committed group records (each site's redo log).
    committed: BTreeMap<GroupId, GroupRecord>,
    /// Volatile: groups awaiting decisions.
    pending: BTreeMap<GroupId, PendingGroup>,
    stats: GroupStats,
    /// Legs that parked during the current drain.
    pub(crate) ready: Vec<(TxnId, bool)>,
}

impl GroupManager {
    /// A site crashed: its pending groups are lost; durable group
    /// records survive.
    pub(crate) fn crash(&mut self, site: SiteId) {
        self.pending.retain(|group, _| group.site != site);
    }
}

impl Simulation {
    /// Group statistics so far.
    #[must_use]
    pub fn group_stats(&self) -> &GroupStats {
        &self.groups.stats
    }

    /// Submit an atomic update to the distinct objects `files` at
    /// `site`. Returns the group id, or `None` if the site is down.
    pub fn submit_group(&mut self, site: SiteId, files: &[ObjectId]) -> Option<GroupId> {
        assert!(!files.is_empty());
        if !self.topology.is_up(site) {
            return None;
        }
        self.groups.stats.submitted += 1;
        let seq = self.groups.last_seq.entry(site).or_default();
        *seq += 1;
        let group = GroupId { site, seq: *seq };
        // All-or-nothing from the first instant: a locked copy refuses
        // the group before any leg starts.
        if files.iter().any(|&file| self.copy(file, site).is_locked()) {
            self.groups.stats.lock_busy += 1;
            return Some(group);
        }
        let payload = self.fresh_payload();
        self.stats.submitted += files.len() as u64;
        let txns: Vec<TxnId> = files
            .iter()
            .map(|&file| {
                let (payloads, hold) = (&[payload], true);
                let input = Input::Update { payloads, hold };
                let leg = self.sites[site.index()].step(file, input, &mut self.scratch);
                leg.expect("objects are distinct and their locks were free")
            })
            .collect();
        self.groups.pending.insert(
            group,
            PendingGroup {
                undecided: txns.len(),
                commit: true,
                txns,
                payload,
            },
        );
        self.apply_actions(site);
        Some(group)
    }

    /// Hand the legs that parked during the drain just finished to
    /// their managers (the tail of [`Simulation::apply_actions`]).
    pub(crate) fn run_group_manager(&mut self) {
        while let Some((txn, distinguished)) = self.groups.ready.pop() {
            self.on_decision(txn, distinguished);
        }
    }

    /// A leg finished its voting/catch-up phases.
    fn on_decision(&mut self, txn: TxnId, distinguished: bool) {
        let site = txn.coordinator;
        let mut groups = self.groups.pending.iter_mut();
        let Some((&group, pending)) = groups.find(|(_, p)| p.txns.contains(&txn)) else {
            // The group is gone; release the straggler leg.
            return self.finalize_leg(txn, false);
        };
        pending.undecided -= 1;
        pending.commit &= distinguished;
        if pending.undecided > 0 {
            return;
        }
        // Every leg decided: the global verdict.
        let pending = self.groups.pending.remove(&group).expect("found above");
        let commit = pending.commit;
        if commit {
            // Gather each leg's participant view and force-write the
            // group record — THE atomic commit point — before touching
            // any leg.
            let members = pending.txns.iter().map(|&t| {
                let parked = self.copy(t.object, site).decided_members(t);
                parked.expect("decided legs carry members").to_vec()
            });
            let record = GroupRecord {
                members: members.collect(),
                txns: pending.txns.clone(),
                payload: pending.payload,
            };
            self.groups.committed.insert(group, record);
            self.groups.stats.group_commits += 1;
        } else {
            self.groups.stats.group_rejected += 1;
        }
        for txn in pending.txns {
            self.finalize_leg(txn, commit);
        }
    }

    /// Walk one parked leg through its door.
    fn finalize_leg(&mut self, txn: TxnId, commit: bool) {
        let site = txn.coordinator;
        self.feed(site, txn.object, Input::Finalize { txn, commit });
    }

    /// REDO pass at the head of [`Simulation::recover_site`]: finish
    /// every durably committed group (idempotent per leg).
    pub(crate) fn redo_groups(&mut self, site: SiteId) {
        let committed = std::mem::take(&mut self.groups.committed);
        for (_, record) in committed.iter().filter(|(g, _)| g.site == site) {
            for (&txn, members) in record.txns.iter().zip(&record.members) {
                let payload = record.payload;
                self.feed(
                    site,
                    txn.object,
                    Input::Redo {
                        txn,
                        payload,
                        members,
                    },
                );
            }
        }
        self.groups.committed = committed;
    }

    /// Cross-file atomicity audit: every durably committed group must
    /// have *all* of its legs committed in the file ledgers. Returns
    /// the offending group ids in order (empty = atomic).
    #[must_use]
    pub fn check_atomicity(&self) -> Vec<GroupId> {
        let in_ledger = |txn: &TxnId| {
            let mut ledger = self.ledgers[txn.object.index()].iter().flatten();
            ledger.any(|entry| entry.txn == *txn)
        };
        let committed = self.groups.committed.iter();
        committed
            .filter(|(_, record)| !record.txns.iter().all(in_ledger))
            .map(|(&group, _)| group)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use dynvote_core::{AlgorithmKind, SiteSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const F0: ObjectId = ObjectId(0);
    const F1: ObjectId = ObjectId(1);

    fn set(s: &str) -> SiteSet {
        SiteSet::parse(s).unwrap()
    }

    fn sim_with(config: SimConfig) -> Simulation {
        Simulation::with_files(config, &[AlgorithmKind::Hybrid, AlgorithmKind::Voting])
    }

    fn sim() -> Simulation {
        sim_with(SimConfig::default())
    }

    #[test]
    fn healthy_group_commits_both_files() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_commits, 1);
        for file in [F0, F1] {
            for i in 0..5 {
                assert_eq!(
                    s.copy(file, SiteId(i)).meta().version,
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
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        // One commit happened with all 5, so the hybrid file (0) and
        // the voting file (1) both need 3 of 5: give AB only — both
        // legs refuse.
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_rejected, 1);
        assert_eq!(s.group_stats().group_commits, 1);
        // Now shrink file 0's quorum alone (single-leg group on file 0
        // via ABC), then ask for a cross-file group from AB: file 0
        // says yes (2 of 3), file 1 says no (2 of 5) -> atomic abort.
        s.impose_partitions(&[set("ABC"), set("DE")]);
        s.submit_group(SiteId(0), &[F0]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_commits, 2);
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_rejected, 2);
        // File 0's version must NOT have advanced (atomicity).
        assert_eq!(s.copy(F0, SiteId(0)).meta().version, 2);
        assert!(s.check_invariants().is_empty());
        assert!(s.check_atomicity().is_empty());
    }

    #[test]
    fn coordinator_crash_after_group_record_redoes_on_recovery() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        // Start a group and run *just* past the decision point: with
        // latency 0.01 the votes return by ~0.02 and both legs decide
        // (all replies in), writing the group record and sending the
        // COMMIT messages; crash A before those deliver.
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.run_until(s.clock() + 2.0 * SimConfig::default().latency + 1e-6);
        assert_eq!(s.group_stats().group_commits, 2);
        s.crash_site(SiteId(0));
        s.quiesce();
        // The group record is durable: recovery must redo both legs
        // and the subordinates must converge.
        s.recover_site(SiteId(0));
        s.quiesce();
        for file in [F0, F1] {
            for i in 0..5 {
                assert!(
                    s.copy(file, SiteId(i)).meta().version >= 2,
                    "file {file} site {i} missed the redone commit"
                );
            }
        }
        assert!(s.check_atomicity().is_empty());
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn lock_busy_group_aborts_cleanly() {
        let mut s = sim();
        // Two groups race at the same coordinator: the second finds the
        // locks held and aborts without touching anything.
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().lock_busy, 1);
        assert_eq!(s.group_stats().group_commits, 1);
        assert!(s.check_invariants().is_empty());
        assert!(s.check_atomicity().is_empty());
    }

    #[test]
    fn per_file_quorums_evolve_independently() {
        let mut s = sim();
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
        s.quiesce();
        // Shrink the hybrid file's quorum to ABC via single-file groups.
        s.impose_partitions(&[set("ABC"), set("DE")]);
        s.submit_group(SiteId(0), &[F0]).unwrap();
        s.quiesce();
        // AB: file 0 (hybrid, quorum base 3) accepts; file 1 (static
        // voting) refuses.
        s.impose_partitions(&[set("AB"), set("CDE")]);
        s.submit_group(SiteId(0), &[F0]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_commits, 3);
        s.submit_group(SiteId(0), &[F1]).unwrap();
        s.quiesce();
        assert_eq!(s.group_stats().group_rejected, 1);
        assert!(s.check_invariants().is_empty());
    }

    /// Sixty rounds of crashes, mass recoveries and random one- or
    /// two-file groups over a lossy network, then a full recovery.
    fn chaos_run(seed: u64) -> Simulation {
        let mut s = sim_with(SimConfig {
            drop_probability: 0.1,
            seed,
            ..SimConfig::default()
        });
        s.submit_group(SiteId(0), &[F0, F1]).unwrap();
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
                    let files: &[ObjectId] = if rng.gen_bool(0.5) {
                        &[F0, F1]
                    } else {
                        &[ObjectId(rng.gen_range(0..2))]
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
        s
    }

    #[test]
    fn random_chaos_preserves_atomicity() {
        for seed in 0..3 {
            let s = chaos_run(seed);
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
            assert!(s.group_stats().group_commits > 0, "seed {seed}");
        }
    }

    /// The group path (hold, park, finalize) pinned by value: one
    /// chaos seed's group outcomes and each file's final chain length.
    #[test]
    fn chaos_seed_group_outcomes_are_pinned() {
        let s = chaos_run(1);
        let stats = s.group_stats();
        let got = (
            stats.submitted,
            stats.group_commits,
            stats.group_rejected,
            stats.lock_busy,
        );
        assert_eq!(got, (41, 36, 5, 0), "{stats:?}");
        let chains: Vec<usize> = s.ledgers.iter().map(Vec::len).collect();
        assert_eq!(chains, [38, 30]);
    }
}
