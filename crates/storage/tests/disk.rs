//! The store over the disk seam: what a crash image recovers, and how
//! many disk calls a barrier and a fresh open make. (`golden_wal.rs`
//! runs the golden WAL script on a [`MemDisk`] too.)

use dynvote_protocol::persist::{apply_op, PersistOp};
use dynvote_protocol::{DurableState, ObjectId};
use dynvote_storage::{Disk, FsyncPolicy, MemDisk, NodeStore, StorageError, StoreConfig};
use std::cell::RefCell;
use std::path::Path;

fn config(fsync: FsyncPolicy) -> StoreConfig {
    StoreConfig { fsync }
}

/// Three sealed ops and a fourth left in the batch, on a fresh
/// one-object store: the disk it leaves behind.
fn three_sealed_one_pending(fsync: FsyncPolicy) -> MemDisk {
    let (mut store, _, _) = NodeStore::open_on(
        MemDisk::default(),
        Path::new("site"),
        config(fsync),
        1,
        DurableState::initial(3),
    )
    .unwrap();
    for seq in 1..=3 {
        store.append(ObjectId(0), &PersistOp::Seq(seq)).unwrap();
        store.barrier().unwrap();
    }
    store.append(ObjectId(0), &PersistOp::Seq(4)).unwrap();
    store.disk().clone()
}

fn after_seqs(seqs: impl IntoIterator<Item = u64>) -> DurableState {
    let mut state = DurableState::initial(3);
    for seq in seqs {
        apply_op(&mut state, &PersistOp::Seq(seq));
    }
    state
}

#[test]
fn a_crash_recovers_exactly_the_ops_sealed_before_the_last_sync() {
    // Under `never` the last sync made the empty segment; under
    // `always` it forced the third barrier.
    for (fsync, synced) in [(FsyncPolicy::Never, 0), (FsyncPolicy::Always, 3)] {
        let disk = three_sealed_one_pending(fsync);
        let mut image = disk.clone();
        image.crash();
        let template = DurableState::initial(3);
        let site = Path::new("site");

        let (states, report) = NodeStore::inspect_on(&image, site, template.clone()).unwrap();
        assert_eq!(report.records_replayed, synced, "{fsync}");
        assert_eq!(report.truncated, None, "{fsync}: a crash tears nothing");
        assert_eq!(states, [after_seqs(1..=synced)], "{fsync}");
        let (_, reopened, _) =
            NodeStore::open_on(image, site, config(fsync), 1, template.clone()).unwrap();
        assert_eq!(reopened, states, "{fsync}: open and inspect agree");

        // Without the crash every sealed op is there, and the unsealed
        // one never is.
        let (states, report) = NodeStore::inspect_on(&disk, site, template).unwrap();
        assert_eq!(report.records_replayed, 3, "{fsync}");
        assert_eq!(states, [after_seqs(1..=3)], "{fsync}");
    }
}

/// A [`MemDisk`] that records the name of every call made on it.
#[derive(Default)]
struct Counting {
    inner: MemDisk,
    calls: RefCell<Vec<&'static str>>,
}

impl Counting {
    fn note(&self, call: &'static str) {
        self.calls.borrow_mut().push(call);
    }

    /// The calls made since the last `take`.
    fn take(&self) -> Vec<&'static str> {
        self.calls.take()
    }
}

impl Disk for Counting {
    type File = <MemDisk as Disk>::File;

    fn create_dir_all(&mut self, dir: &Path) -> Result<bool, StorageError> {
        self.note("create_dir_all");
        self.inner.create_dir_all(dir)
    }

    fn create(&mut self, path: &Path) -> Result<Self::File, StorageError> {
        self.note("create");
        self.inner.create(path)
    }

    fn append(&mut self, file: &mut Self::File, bytes: &[u8]) -> Result<(), StorageError> {
        self.note("append");
        self.inner.append(file, bytes)
    }

    fn sync(&mut self, file: &Self::File) -> Result<(), StorageError> {
        self.note("sync");
        self.inner.sync(file)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.note("rename");
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> Result<(), StorageError> {
        self.note("remove");
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, StorageError> {
        self.note("list");
        self.inner.list(dir)
    }

    fn sync_dir(&mut self, dir: &Path) -> Result<(), StorageError> {
        self.note("sync_dir");
        self.inner.sync_dir(dir)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.note("read");
        self.inner.read(path)
    }
}

#[test]
fn a_fresh_open_forces_one_segment_and_both_directories() {
    let (store, _, _) = NodeStore::open_on(
        Counting::default(),
        Path::new("site"),
        config(FsyncPolicy::Always),
        1,
        DurableState::initial(3),
    )
    .unwrap();
    assert_eq!(
        store.disk().take(),
        [
            "create_dir_all",
            "list",
            "create",
            "append",
            "sync",
            "sync_dir",
            "sync_dir"
        ]
    );
}

#[test]
fn a_barrier_is_one_append_and_a_sync_only_when_forced() {
    for (fsync, sealed) in [
        (FsyncPolicy::Always, &["append", "sync"][..]),
        (FsyncPolicy::Never, &["append"][..]),
    ] {
        let (mut store, _, _) = NodeStore::open_on(
            Counting::default(),
            Path::new("site"),
            config(fsync),
            2,
            DurableState::initial(3),
        )
        .unwrap();
        store.disk().take();
        store.append(ObjectId(0), &PersistOp::Seq(1)).unwrap();
        store.append(ObjectId(1), &PersistOp::Seq(1)).unwrap();
        store.barrier().unwrap();
        assert_eq!(store.disk().take(), sealed, "{fsync}");
        store.barrier().unwrap();
        assert!(store.disk().take().is_empty(), "{fsync}: empty barrier");
    }
}
