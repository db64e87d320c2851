//! The store over the disk seam: the golden WAL script on a
//! [`MemDisk`], what a crash image recovers, and how many disk calls a
//! barrier and a fresh open make.

use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use dynvote_protocol::persist::{apply_op, effects, PersistOp};
use dynvote_protocol::{
    Action, DurableState, Input, Message, ObjectId, ShardedSite, TimerKind, TxnId,
};
use dynvote_storage::{Disk, FsyncPolicy, MemDisk, NodeStore, StorageError, StoreConfig};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

const N: usize = 5;
const OBJECTS: usize = 2;

fn config(fsync: FsyncPolicy) -> StoreConfig {
    StoreConfig { fsync }
}

/// `golden_wal.rs`'s five-site script, each site's store on its own
/// [`MemDisk`]: a zero-latency FIFO network, timers fired only when the
/// script says so, frames to or from a crashed site lost.
struct Script {
    sites: Vec<ShardedSite>,
    stores: Vec<NodeStore<MemDisk>>,
    queue: VecDeque<(SiteId, SiteId, Message)>,
    timers: Vec<(SiteId, TxnId, TimerKind)>,
    down: SiteSet,
    drop_commits_to: Option<SiteId>,
}

impl Script {
    fn run(&mut self, site: usize, call: impl FnOnce(&mut ShardedSite, &mut Vec<Action>)) {
        let mut out = Vec::new();
        call(&mut self.sites[site], &mut out);
        let store = &mut self.stores[site];
        for (object, effect) in effects(&out) {
            let log = self.sites[site].shard(object).expect("hosted").log();
            store.append_effect(object, &effect, log);
        }
        store.barrier().unwrap();
        let from = SiteId(site as u8);
        for action in out {
            match action {
                Action::Send { to, msg } => self.queue.push_back((from, to, msg)),
                Action::Broadcast { msg } => {
                    for i in (0..N).filter(|&i| i != site) {
                        self.queue.push_back((from, SiteId(i as u8), msg.clone()));
                    }
                }
                Action::SetTimer { txn, kind } => self.timers.push((from, txn, kind)),
                _ => {}
            }
        }
    }

    fn drain(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if self.down.contains(from) || self.down.contains(to) {
                continue;
            }
            if self.drop_commits_to == Some(to) && matches!(msg, Message::Commit { .. }) {
                continue;
            }
            let object = msg.txn().object;
            self.run(to.index(), |site, out| {
                site.step(object, Input::Message { from, msg }, out);
            });
        }
    }

    fn fire(&mut self, site: usize, kind: TimerKind) {
        let (_, txn, _) = *self
            .timers
            .iter()
            .rev()
            .find(|(s, _, k)| s.index() == site && *k == kind)
            .expect("timer armed");
        self.run(site, |s, out| {
            s.step(txn.object, Input::Timer { txn, kind }, out);
        });
        self.drain();
    }

    fn update(&mut self, site: usize, object: u32, payloads: &[u64]) {
        self.run(site, |s, out| {
            let hold = false;
            s.step(ObjectId(object), Input::Update { payloads, hold }, out);
        });
    }
}

#[test]
fn the_golden_script_on_a_mem_disk_writes_the_fixture_bytes() {
    let (stores, sites) = (0..N)
        .map(|i| {
            let dir = PathBuf::from(format!("site-{i}"));
            let (store, states, _) = NodeStore::open_on(
                MemDisk::default(),
                &dir,
                config(FsyncPolicy::Never),
                OBJECTS,
                DurableState::initial(N),
            )
            .unwrap();
            let site = ShardedSite::restore(SiteId(i as u8), N, states, || {
                AlgorithmKind::Hybrid.instantiate(N)
            });
            (store, site)
        })
        .unzip();
    let mut s = Script {
        sites,
        stores,
        queue: VecDeque::new(),
        timers: Vec::new(),
        down: SiteSet::EMPTY,
        drop_commits_to: None,
    };

    s.update(0, 0, &[100]);
    s.drain();
    s.update(1, 1, &[200, 201]);
    s.drain();
    s.run(2, |site, out| {
        site.step(ObjectId(0), Input::Read, out);
    });
    s.drain();
    s.update(0, 1, &[300]);
    s.update(4, 1, &[400]);
    s.drain();
    s.update(4, 1, &[500]);
    s.drain();
    s.drop_commits_to = Some(SiteId(2));
    s.update(3, 0, &[600]);
    s.drain();
    s.drop_commits_to = None;
    s.fire(2, TimerKind::PreparedRetry);
    s.down.insert(SiteId(3));
    s.run(3, |site, out| site.crash(out));
    s.update(1, 0, &[800]);
    s.drain();
    s.fire(1, TimerKind::VoteDeadline);
    s.down.remove(SiteId(3));
    s.run(3, |site, out| {
        let restart_payload = 700;
        site.step(ObjectId(0), Input::Recover { restart_payload }, out);
    });
    s.drain();

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (i, store) in s.stores.iter().enumerate() {
        let wal = Path::new(&format!("site-{i}")).join(format!("wal-{:016}", 1));
        let written = store.disk().read(&wal).unwrap();
        let expected = std::fs::read(golden.join(format!("site-{i}.wal"))).unwrap();
        assert!(
            written == expected,
            "site {i}: WAL bytes differ from the fixture"
        );
    }
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
