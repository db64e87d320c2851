//! Multi-file databases and transactions — the paper's footnote 2.
//!
//! "Our work generalizes to the setting where transactions may update
//! two or more files. Any such transaction T will require a
//! distinguished partition for every file in its read and write set."
//!
//! [`MultiFileSystem`] manages several replicated files, each with its
//! own replication site set, a-priori linear order, and replica control
//! algorithm. A [`Transaction`] names the files it reads and writes;
//! it commits iff the current partition is distinguished *for every
//! file touched* (reads included, per footnote 5 — a read needs a
//! distinguished partition but modifies no metadata).

use crate::algorithm::{ReplicaControl, Verdict};
use crate::scenario::ReplicaSystem;
use crate::site::{LinearOrder, SiteId, SiteSet};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a file within a [`MultiFileSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(usize);

impl FileId {
    /// The index of the file.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A transaction's access sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transaction {
    /// Files read (require a distinguished partition; no metadata
    /// change).
    pub reads: Vec<FileId>,
    /// Files written (require a distinguished partition; version,
    /// cardinality and distinguished-sites entries advance).
    pub writes: Vec<FileId>,
}

impl Transaction {
    /// A read-only transaction.
    #[must_use]
    pub fn read(files: &[FileId]) -> Self {
        Transaction {
            reads: files.to_vec(),
            writes: Vec::new(),
        }
    }

    /// A write (update) transaction.
    #[must_use]
    pub fn write(files: &[FileId]) -> Self {
        Transaction {
            reads: Vec::new(),
            writes: files.to_vec(),
        }
    }

    /// All files touched, reads first.
    pub fn touched(&self) -> impl Iterator<Item = FileId> + '_ {
        self.reads.iter().chain(self.writes.iter()).copied()
    }
}

/// Outcome of a multi-file transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionOutcome {
    /// True if every touched file had a distinguished partition and all
    /// writes committed atomically.
    pub committed: bool,
    /// Per touched file: its verdict (in [`Transaction::touched`]
    /// order).
    pub verdicts: Vec<(FileId, Verdict)>,
}

struct FileEntry {
    name: String,
    /// Global site of each local replica index.
    sites: Vec<SiteId>,
    /// Local index of each global site.
    local: HashMap<SiteId, SiteId>,
    system: ReplicaSystem<Box<dyn ReplicaControl>>,
}

impl FileEntry {
    /// Project a global partition onto the file's local replica space.
    fn localize(&self, partition: SiteSet) -> SiteSet {
        SiteSet::from_sites(
            self.sites
                .iter()
                .enumerate()
                .filter(|(_, global)| partition.contains(**global))
                .map(|(local, _)| SiteId::new(local)),
        )
    }
}

/// A distributed database of several replicated files.
pub struct MultiFileSystem {
    n_sites: usize,
    files: Vec<FileEntry>,
}

impl fmt::Debug for MultiFileSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiFileSystem")
            .field("n_sites", &self.n_sites)
            .field(
                "files",
                &self.files.iter().map(|e| &e.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MultiFileSystem {
    /// A database over `n_sites` global sites, initially without files.
    #[must_use]
    pub fn new(n_sites: usize) -> Self {
        assert!(n_sites >= 2);
        MultiFileSystem {
            n_sites,
            files: Vec::new(),
        }
    }

    /// Number of global sites.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Register a file replicated at the given global sites, managed by
    /// `algo`. The file's a-priori linear order ranks its replicas by
    /// ascending global site id, greatest first (the paper's
    /// lexicographic convention — "different files may be replicated at
    /// different groups of sites, and sites in each group may be
    /// assigned different total orderings").
    ///
    /// # Panics
    ///
    /// If `sites` has fewer than two members or names non-existent
    /// sites.
    pub fn add_file(
        &mut self,
        name: &str,
        sites: SiteSet,
        algo: Box<dyn ReplicaControl>,
    ) -> FileId {
        assert!(sites.len() >= 2, "a replicated file needs >= 2 sites");
        assert!(
            sites.is_subset(SiteSet::all(self.n_sites)),
            "replication sites must exist"
        );
        let site_list: Vec<SiteId> = sites.iter().collect();
        let local: HashMap<SiteId, SiteId> = site_list
            .iter()
            .enumerate()
            .map(|(i, &global)| (global, SiteId::new(i)))
            .collect();
        let order = LinearOrder::lexicographic(site_list.len());
        let system = ReplicaSystem::with_order(order, algo);
        self.files.push(FileEntry {
            name: name.to_owned(),
            sites: site_list,
            local,
            system,
        });
        FileId(self.files.len() - 1)
    }

    /// The file's name.
    #[must_use]
    pub fn file_name(&self, file: FileId) -> &str {
        &self.files[file.0].name
    }

    /// The global sites replicating the file.
    #[must_use]
    pub fn replication_sites(&self, file: FileId) -> SiteSet {
        SiteSet::from_sites(self.files[file.0].sites.iter().copied())
    }

    /// The file's version at a global site (`None` if the site holds no
    /// copy).
    #[must_use]
    pub fn version_at(&self, file: FileId, site: SiteId) -> Option<u64> {
        let entry = &self.files[file.0];
        entry
            .local
            .get(&site)
            .map(|&local| entry.system.meta(local).version)
    }

    /// Attempt a transaction from within `partition` (the coordinator's
    /// connected component, in global site ids).
    ///
    /// All touched files are checked first; writes commit only if
    /// *every* touched file is distinguished — the all-or-nothing
    /// semantics footnote 2 requires.
    pub fn attempt_transaction(
        &mut self,
        partition: SiteSet,
        txn: &Transaction,
    ) -> TransactionOutcome {
        let verdicts: Vec<(FileId, Verdict)> = txn
            .touched()
            .map(|file| {
                let entry = &self.files[file.0];
                (file, entry.system.decide(entry.localize(partition)))
            })
            .collect();
        let committed = !verdicts.is_empty() && verdicts.iter().all(|(_, v)| v.is_accepted());
        if committed {
            for &file in &txn.writes {
                let local = self.files[file.0].localize(partition);
                let outcome = self.files[file.0].system.attempt_update(local);
                debug_assert!(outcome.committed(), "pre-checked file must commit");
            }
        }
        TransactionOutcome {
            committed,
            verdicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AlgorithmKind;
    use crate::algorithms::{Hybrid, StaticVoting};

    fn set(s: &str) -> SiteSet {
        SiteSet::parse(s).unwrap()
    }

    impl MultiFileSystem {
        /// Would the partition serve (read or write) the file?
        fn can_access(&self, file: FileId, partition: SiteSet) -> bool {
            let entry = &self.files[file.0];
            entry.system.can_update(entry.localize(partition))
        }
    }

    /// Two files over seven sites: `inventory` at ABCDE (hybrid) and
    /// `orders` at CDEFG (voting).
    fn two_files() -> (MultiFileSystem, FileId, FileId) {
        let mut db = MultiFileSystem::new(7);
        let inventory = db.add_file("inventory", set("ABCDE"), Box::new(Hybrid::new()));
        let orders = db.add_file("orders", set("CDEFG"), Box::new(StaticVoting::uniform(5)));
        (db, inventory, orders)
    }

    #[test]
    fn single_file_write_needs_only_that_quorum() {
        let (mut db, inventory, _) = two_files();
        // ABC is 3 of inventory's 5 replicas; orders is irrelevant.
        let out = db.attempt_transaction(set("ABC"), &Transaction::write(&[inventory]));
        assert!(out.committed);
        assert_eq!(db.version_at(inventory, SiteId(0)), Some(1));
        assert_eq!(db.version_at(inventory, SiteId(4)), Some(0)); // E missed it
        assert_eq!(db.version_at(inventory, SiteId(6)), None); // no copy at G
    }

    #[test]
    fn cross_file_transaction_needs_every_quorum() {
        let (mut db, inventory, orders) = two_files();
        let both = Transaction::write(&[inventory, orders]);
        // ABC: quorum for inventory, but only C from orders' replicas.
        let out = db.attempt_transaction(set("ABC"), &both);
        assert!(!out.committed);
        assert_eq!(out.verdicts.len(), 2);
        assert!(out.verdicts[0].1.is_accepted());
        assert!(!out.verdicts[1].1.is_accepted());
        // Atomicity: the accepted file must NOT have committed alone.
        assert_eq!(db.version_at(inventory, SiteId(0)), Some(0));

        // CDE serves both: 3 of 5 inventory replicas and 3 of 5 orders
        // replicas.
        let out = db.attempt_transaction(set("CDE"), &both);
        assert!(out.committed);
        assert_eq!(db.version_at(inventory, SiteId(2)), Some(1));
        assert_eq!(db.version_at(orders, SiteId(2)), Some(1));
    }

    #[test]
    fn reads_require_quorum_but_change_nothing() {
        let (mut db, inventory, orders) = two_files();
        let read_both = Transaction::read(&[inventory, orders]);
        assert!(db.attempt_transaction(set("CDE"), &read_both).committed);
        assert_eq!(db.version_at(inventory, SiteId(2)), Some(0));
        assert!(!db.attempt_transaction(set("AB"), &read_both).committed);
    }

    #[test]
    fn mixed_read_write_transactions() {
        let (mut db, inventory, orders) = two_files();
        let txn = Transaction {
            reads: vec![inventory],
            writes: vec![orders],
        };
        let out = db.attempt_transaction(set("CDEFG"), &txn);
        assert!(out.committed);
        assert_eq!(db.version_at(inventory, SiteId(2)), Some(0), "read-only");
        assert_eq!(db.version_at(orders, SiteId(6)), Some(1), "written");
    }

    #[test]
    fn per_file_dynamic_state_evolves_independently() {
        let (mut db, inventory, _) = two_files();
        // Shrink inventory's quorum to ABC, then to AB (hybrid trio
        // phase) while orders is untouched.
        assert!(
            db.attempt_transaction(set("ABC"), &Transaction::write(&[inventory]))
                .committed
        );
        assert!(
            db.attempt_transaction(set("AB"), &Transaction::write(&[inventory]))
                .committed
        );
        // DE alone can no longer write inventory...
        assert!(!db.can_access(inventory, set("DE")));
        // ...and CDEFG still writes orders (a static majority there).
        assert!(db.can_access(FileId(1), set("CDEFG")));
    }

    #[test]
    fn different_algorithms_per_file() {
        let mut db = MultiFileSystem::new(5);
        let files: Vec<FileId> = AlgorithmKind::ALL
            .iter()
            .map(|kind| db.add_file(kind.id(), set("ABCDE"), kind.instantiate(5)))
            .collect();
        // ABC writes everything (majority in every scheme, fresh state).
        for &f in &files {
            assert!(
                db.attempt_transaction(set("ABC"), &Transaction::write(&[f]))
                    .committed
            );
        }
        // AB now: dynamic algorithms (quorum shrank to ABC) accept;
        // static voting refuses (2 of 5).
        for (&f, kind) in files.iter().zip(AlgorithmKind::ALL.iter()) {
            let ok = db
                .attempt_transaction(set("AB"), &Transaction::write(&[f]))
                .committed;
            match kind {
                AlgorithmKind::Voting => assert!(!ok, "{kind}"),
                _ => assert!(ok, "{kind}"),
            }
        }
    }

    #[test]
    fn local_site_order_follows_global_ids() {
        let mut db = MultiFileSystem::new(7);
        // File replicated at C, E, G: local ids 0,1,2 map to those.
        let f = db.add_file("f", set("CEG"), Box::new(Hybrid::new()));
        assert_eq!(db.replication_sites(f), set("CEG"));
        assert_eq!(db.version_at(f, SiteId(2)), Some(0)); // C
        assert_eq!(db.version_at(f, SiteId(0)), None); // A: no copy
                                                       // Two of its three replicas form a quorum.
        assert!(
            db.attempt_transaction(set("CE"), &Transaction::write(&[f]))
                .committed
        );
    }

    #[test]
    fn empty_transaction_never_commits() {
        let (mut db, _, _) = two_files();
        let out = db.attempt_transaction(set("ABCDE"), &Transaction::default());
        assert!(!out.committed);
    }
}
