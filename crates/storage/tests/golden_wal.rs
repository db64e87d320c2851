//! Golden WAL bytes: a fixed five-site, two-object kernel script whose
//! every site seals its persist effects into its own [`NodeStore`] after
//! each kernel call, the way a node's merge barrier does. The WAL each
//! site writes must match `tests/golden/site-<i>.wal` byte for byte,
//! with the stores on the real filesystem and on a [`MemDisk`] alike.
//!
//! The fixture was written by the per-object hook path the persist
//! effects replaced, so a data directory written before or after that
//! change reads the same. The script covers every effect kind: plain and
//! batched commits, a read, a lost lock race, a stale coordinator's
//! catch-up, a commit learned through the termination protocol, and a
//! crashed site's `Make_Current`.

use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use dynvote_protocol::persist::effects;
use dynvote_protocol::{
    Action, DurableState, Input, Message, ObjectId, ShardedSite, TimerKind, TxnId,
};
use dynvote_storage::{Disk, FsyncPolicy, MemDisk, NodeStore, OsDisk, StoreConfig};
use std::collections::VecDeque;
use std::path::Path;

const N: usize = 5;
const OBJECTS: usize = 2;

/// Five sites on a zero-latency FIFO network. Timers fire only when the
/// script says so; frames to or from a crashed site are lost.
struct Script<D: Disk> {
    sites: Vec<ShardedSite>,
    stores: Vec<NodeStore<D>>,
    queue: VecDeque<(SiteId, SiteId, Message)>,
    timers: Vec<(SiteId, TxnId, TimerKind)>,
    down: SiteSet,
    drop_commits_to: Option<SiteId>,
}

impl<D: Disk> Script<D> {
    /// One kernel call on `site`, sealed before anything it sent
    /// leaves.
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

    /// Fire the newest `kind` timer `site` armed, then drain.
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

/// Run the script with site `i`'s store in `root/site-<i>` on its own
/// `D`, and check every site's WAL, read back through its disk, against
/// the fixture.
fn script_writes_the_fixture<D: Disk + Default>(root: &Path) {
    let config = StoreConfig {
        fsync: FsyncPolicy::Never,
    };
    let (stores, sites) = (0..N)
        .map(|i| {
            let dir = root.join(format!("site-{i}"));
            let template = DurableState::initial(N);
            let (store, states, _) =
                NodeStore::open_on(D::default(), &dir, config, OBJECTS, template).unwrap();
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

    // A plain commit, a batched one, and a read.
    s.update(0, 0, &[100]);
    s.drain();
    s.update(1, 1, &[200, 201]);
    s.drain();
    s.run(2, |site, out| {
        site.step(ObjectId(0), Input::Read, out);
    });
    s.drain();
    // A lock race: site 0 commits without site 4, whose round aborts.
    s.update(0, 1, &[300]);
    s.update(4, 1, &[400]);
    s.drain();
    // Site 4, now stale, catches up inside its own round.
    s.update(4, 1, &[500]);
    s.drain();
    // Site 2 never hears the commit; the termination protocol tells it.
    s.drop_commits_to = Some(SiteId(2));
    s.update(3, 0, &[600]);
    s.drain();
    s.drop_commits_to = None;
    s.fire(2, TimerKind::PreparedRetry);
    // Site 3 crashes, misses a commit, and restarts with Make_Current.
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

    for site in &s.sites {
        for (object, shard) in site.iter() {
            assert_eq!(shard.meta().version, 4, "site {} {object}", site.id());
        }
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (i, store) in s.stores.iter().enumerate() {
        let wal = store.dir().join(format!("wal-{:016}", 1));
        let written = store.disk().read(&wal).unwrap();
        let expected = std::fs::read(golden.join(format!("site-{i}.wal"))).unwrap();
        assert!(
            written == expected,
            "site {i}: WAL bytes differ from the fixture"
        );
    }
}

#[test]
fn five_site_script_writes_the_golden_wal_bytes() {
    let root = std::env::temp_dir().join(format!("dynvote-golden-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    script_writes_the_fixture::<OsDisk>(&root);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_golden_script_on_a_mem_disk_writes_the_fixture_bytes() {
    script_writes_the_fixture::<MemDisk>(Path::new(""));
}
