//! Durable-cluster lifecycle: reboot-from-disk, crash/recover against
//! real storage, and torn-WAL re-convergence through the protocol's
//! own catch-up path.
//!
//! Every leg ends by asserting that *every* site holds the last
//! version, so no live site may be left out of a round because an fsync
//! took longer than a straggler grace: the clusters boot `scripted`.

mod common;

use common::scripted;
use dynvote_cluster::{ClientOp, ClientReply, Cluster, ClusterConfig, TransportKind};
use dynvote_core::{AlgorithmKind, CopyMeta, SiteId};
use dynvote_protocol::persist::effects;
use dynvote_protocol::{Action, DurableState, Input, Message, SiteActor};
use dynvote_storage::{FsyncPolicy, NodeStore, StoreConfig};
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynvote-cluster-durability-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commit one update coordinated by `site`, retrying past transient
/// Contended/TimedOut rejections.
fn commit_update(cluster: &Cluster, site: SiteId) -> u64 {
    for _ in 0..50 {
        match cluster.client(site).update() {
            Ok(ClientReply::Committed { version }) => return version,
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("client request failed: {e}"),
        }
    }
    panic!("update via site {site} never committed");
}

fn probe_version(cluster: &Cluster, site: SiteId) -> u64 {
    match cluster.probe(site).unwrap() {
        ClientReply::Probe { meta, .. } => meta.version,
        other => panic!("unexpected probe reply {other:?}"),
    }
}

/// The newest WAL segment under one site's data directory.
fn live_wal(site_dir: &PathBuf) -> PathBuf {
    let mut wals: Vec<u64> = std::fs::read_dir(site_dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("wal-").map(|s| s.parse().unwrap())
        })
        .collect();
    wals.sort_unstable();
    site_dir.join(format!("wal-{:016}", wals.last().unwrap()))
}

/// Shut a durable cluster down, boot a fresh one from the same data
/// directory, and keep committing: state, audit baseline, and the
/// ability to make progress must all survive the reboot.
#[test]
fn durable_cluster_resumes_from_disk_across_reboots() {
    let dir = temp_dir("reboot");
    let n = 5;
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::Hybrid).with_data_dir(&dir, FsyncPolicy::Always),
    );

    let first = Cluster::boot(&config).unwrap();
    for _ in 0..3 {
        commit_update(&first, SiteId(0));
    }
    assert!(first.await_quiescence(Duration::from_secs(5)));
    let audit = first.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.chain_len, 3);
    first.shutdown();

    // Second boot: every site recovers version 3 from its own disk, so
    // the next commit is version 4 and extends every recovered log.
    let second = Cluster::boot(&config).unwrap();
    for i in 0..n {
        assert_eq!(
            probe_version(&second, SiteId(i as u8)),
            3,
            "site {i} rebooted stale"
        );
    }
    assert_eq!(commit_update(&second, SiteId(1)), 4);
    assert!(second.await_quiescence(Duration::from_secs(5)));
    let audit = second.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.chain_len, 4);
    second.shutdown();

    // Offline inspection agrees with what the cluster acknowledged.
    for i in 0..n {
        let site_dir = dir.join(format!("site-{i}"));
        let (states, report) = NodeStore::inspect(&site_dir, DurableState::initial(n)).unwrap();
        let state = &states[0];
        assert_eq!(state.meta.version, 4, "site {i} on disk");
        assert_eq!(state.log.len(), 4);
        assert!(report.truncated.is_none());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commit one update on `key` coordinated by `site`, retrying past
/// transient rejections.
fn commit_key(cluster: &Cluster, site: SiteId, key: u32) -> u64 {
    for _ in 0..50 {
        match cluster.client(site).update_key(key) {
            Ok(ClientReply::Committed { version }) => return version,
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("client request failed: {e}"),
        }
    }
    panic!("update on key {key} via site {site} never committed");
}

/// Every site's durable `(VN, SC, DS)` for every key, site-major.
fn probe_all(cluster: &Cluster, n: usize, keys: u32) -> Vec<CopyMeta> {
    let mut metas = Vec::new();
    for i in 0..n {
        for key in 0..keys {
            match cluster.probe_object(SiteId(i as u8), key).unwrap() {
                ClientReply::Probe {
                    meta,
                    in_doubt: false,
                    ..
                } => metas.push(meta),
                other => panic!("site {i} key {key}: unexpected probe reply {other:?}"),
            }
        }
    }
    metas
}

/// Boot opens every site's store at once. On a populated multi-object
/// data dir written by two coordinators, every site must come back with
/// the exact `(VN, SC, DS)` it held for every key, and its logs must
/// audit as they did before: one more commit per key audits clean.
#[test]
fn concurrent_boot_recovers_a_populated_multi_object_dir() {
    let dir = temp_dir("multi");
    let n = 5;
    let keys = 8u32;
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::Hybrid)
            .with_transport(TransportKind::Tcp)
            .with_objects(keys as usize)
            .with_data_dir(&dir, FsyncPolicy::Always),
    );

    let first = Cluster::boot(&config).unwrap();
    // Keys end at different versions, each written by both coordinators.
    for round in 0..3u32 {
        for key in 0..keys {
            if round < 2 || key % 3 == 0 {
                commit_key(&first, SiteId(((key + round) % 2) as u8), key);
            }
        }
    }
    assert!(first.await_quiescence(Duration::from_secs(5)));
    let before = probe_all(&first, n, keys);
    let audit = first.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    first.shutdown();

    let second = Cluster::boot(&config).unwrap();
    assert_eq!(probe_all(&second, n, keys), before, "rebooted (VN, SC, DS)");
    let chain_len = second.audit().unwrap().chain_len;
    assert_eq!(chain_len, audit.chain_len, "ledger primed from the disks");
    for key in 0..keys {
        let top = (0..n)
            .map(|i| before[i * keys as usize + key as usize].version)
            .max()
            .unwrap();
        assert_eq!(commit_key(&second, SiteId(1), key), top + 1, "key {key}");
    }
    assert!(second.await_quiescence(Duration::from_secs(5)));
    let audit = second.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.chain_len, chain_len + u64::from(keys));
    second.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seal what one kernel call on `actor` emitted the way its node's
/// merge barrier does: its persist effects, then one barrier.
fn seal(store: &mut NodeStore, actor: &SiteActor, actions: &[Action]) {
    for (object, effect) in effects(actions) {
        store.append_effect(object, &effect, actor.log());
    }
    store.barrier().unwrap();
}

/// The worst SIGKILL interleaving: the coordinator's commit record hit
/// its disk and the client was acked, but the process died before the
/// COMMIT fan-out was delivered — every subordinate reboots holding a
/// durable prepare record for a transaction only the coordinator knows
/// committed. The coordinator is then the *only* current copy of a
/// cardinality-5 update, so no partition can ever be distinguished
/// again; the sole way back is the Section V-C restart path: in-doubt
/// sites must resume the termination protocol at boot, learn `Committed`
/// from the coordinator's durable commit record, and catch up. A boot
/// path that comes up unlocked instead lets fresh vote requests clobber
/// the prepare records and wedges the cluster permanently.
#[test]
fn orphaned_prepares_resolve_via_termination_protocol_at_boot() {
    let dir = temp_dir("orphan");
    let n = 5;

    // --- First life, fabricated with real actors over real stores:
    // site 0 coordinates an update, all four subordinates force their
    // prepare records and grant votes, site 0 decides + force-writes
    // the commit — and then the "process dies": the Commit fan-out in
    // `fanout` is dropped on the floor and every actor is dropped.
    {
        let (mut stores, mut actors): (Vec<NodeStore>, Vec<SiteActor>) = (0..n)
            .map(|i| {
                let site_dir = dir.join(format!("site-{i}"));
                let (store, mut states, _) = NodeStore::open(
                    &site_dir,
                    StoreConfig::default(),
                    1,
                    DurableState::initial(n),
                )
                .unwrap();
                let actor = SiteActor::restore(
                    SiteId(i as u8),
                    n,
                    AlgorithmKind::Hybrid.instantiate(n),
                    states.remove(0),
                );
                (store, actor)
            })
            .unzip();

        let mut out = Vec::new();
        let (payloads, hold) = (&[4242], false);
        actors[0].step(Input::Update { payloads, hold }, &mut out);
        seal(&mut stores[0], &actors[0], &out);
        let request = out
            .iter()
            .find_map(|action| match action {
                Action::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("vote request broadcast");

        let mut votes = Vec::new();
        for (i, (sub, store)) in actors.iter_mut().zip(&mut stores).enumerate().skip(1) {
            let mut sub_out = Vec::new();
            let (from, msg) = (SiteId(0), request.clone());
            sub.step(Input::Message { from, msg }, &mut sub_out);
            // Barrier before the vote "leaves the site": the prepare
            // record is durable from here on.
            seal(store, sub, &sub_out);
            for action in sub_out {
                if let Action::Send { to, msg } = action {
                    assert_eq!(to, SiteId(0));
                    assert!(matches!(msg, Message::VoteGranted { .. }));
                    votes.push((SiteId(i as u8), msg));
                }
            }
        }
        let mut fanout = Vec::new();
        for (from, msg) in votes {
            actors[0].step(Input::Message { from, msg }, &mut fanout);
        }
        seal(&mut stores[0], &actors[0], &fanout);
        assert_eq!(actors[0].meta().version, 1, "coordinator committed");
        assert_eq!(actors[0].meta().cardinality, n as u32);
        for actor in &actors[1..] {
            assert!(actor.is_in_doubt(), "subordinate holds a prepare record");
            assert_eq!(actor.meta().version, 0, "fan-out never delivered");
        }
        // SIGKILL: `fanout` is never delivered.
    }

    // --- Second life: every subordinate boots in doubt. The cluster
    // must resolve the orphaned transaction and keep committing — this
    // very update() wedged forever before in-doubt boot recovery.
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::Hybrid).with_data_dir(&dir, FsyncPolicy::Always),
    );
    let cluster = Cluster::boot(&config).unwrap();
    let mut next = commit_update(&cluster, SiteId(0));
    assert!(next >= 2, "post-recovery commit must extend version 1");
    // A site still inside its boot-time termination round when that
    // update's vote request arrived voted busy and was not counted, so
    // it holds version 1 with its doubt resolved. The next round it
    // takes part in brings it current.
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    if (0..n).any(|i| probe_version(&cluster, SiteId(i as u8)) != next) {
        next = commit_update(&cluster, SiteId(0));
    }

    // Every site converges on the new version with its doubt resolved.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    'sites: for i in 0..n {
        loop {
            match cluster.probe(SiteId(i as u8)).unwrap() {
                ClientReply::Probe { meta, in_doubt, .. } if meta.version == next && !in_doubt => {
                    continue 'sites;
                }
                _ if std::time::Instant::now() >= deadline => {
                    panic!("site {i} never converged on version {next}")
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
    let audit = cluster.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();

    // On disk: no prepare record survives anywhere, and every log holds
    // the orphaned commit plus the post-recovery one, gaplessly.
    for i in 0..n {
        let site_dir = dir.join(format!("site-{i}"));
        let (states, report) = NodeStore::inspect(&site_dir, DurableState::initial(n)).unwrap();
        let state = &states[0];
        assert!(report.truncated.is_none());
        assert!(state.prepared.is_none(), "site {i} still in doubt on disk");
        assert_eq!(state.meta.version, next, "site {i} on disk");
        assert_eq!(state.meta.version, state.log.len() as u64);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// In-cluster crash/recover with real storage underneath: Recover
/// reboots the actor from its data directory (not from warm memory),
/// then `Make_Current` catches it up through the protocol.
#[test]
fn recover_reboots_the_site_from_its_data_dir() {
    let dir = temp_dir("crashrec");
    let n = 3;
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::DynamicVoting)
            .with_data_dir(&dir, FsyncPolicy::Always),
    );
    let cluster = Cluster::boot(&config).unwrap();

    commit_update(&cluster, SiteId(0));
    commit_update(&cluster, SiteId(1));
    cluster.crash(SiteId(2)).unwrap();
    commit_update(&cluster, SiteId(0));
    commit_update(&cluster, SiteId(1));

    cluster.recover(SiteId(2)).unwrap();
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    // The restart protocol plus commit-time catch-up must bring the
    // rebooted site to the current version.
    for _ in 0..50 {
        if probe_version(&cluster, SiteId(2)) == probe_version(&cluster, SiteId(0)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let audit = cluster.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert!(audit.chain_len >= 4, "chain {}", audit.chain_len);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corrupt one site's WAL tail between boots (a torn write the process
/// never noticed). Recovery truncates at the tear, the site reboots on
/// a stale-but-consistent prefix, and the next commits re-converge the
/// cluster through catch-up — no panic, no divergence.
#[test]
fn torn_wal_tail_truncates_and_catchup_reconverges() {
    let dir = temp_dir("torn");
    let n = 3;
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::Hybrid).with_data_dir(&dir, FsyncPolicy::Always),
    );

    let first = Cluster::boot(&config).unwrap();
    for _ in 0..3 {
        commit_update(&first, SiteId(0));
    }
    assert!(first.await_quiescence(Duration::from_secs(5)));
    first.shutdown();

    // Tear the last record of site 0's live segment.
    let site0 = dir.join("site-0");
    let wal = live_wal(&site0);
    let len = std::fs::metadata(&wal).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 4)
        .unwrap();

    // Offline recovery sees the tear and yields a shorter, step-aligned
    // state: metadata version always matches the log length.
    let (states, report) = NodeStore::inspect(&site0, DurableState::initial(n)).unwrap();
    let state = &states[0];
    assert!(report.truncated.is_some(), "tear not detected: {report:?}");
    assert!(state.meta.version < 3);
    assert_eq!(state.meta.version, state.log.len() as u64);

    // Reboot: the damaged site comes up stale, the others current; the
    // chain is the longest recovered log, and a stale prefix is clean.
    let second = Cluster::boot(&config).unwrap();
    let audit = second.audit().unwrap();
    assert!(
        audit.consistent,
        "stale prefix must audit clean: {:?}",
        audit.violations
    );
    assert_eq!(audit.chain_len, 3);

    // New commits drag the torn site back to current via catch-up.
    // Site 1 acks its client before its Commit reaches site 2, so the
    // cluster quiesces before site 0 coordinates: a vote request that
    // overtook that Commit would find site 2 still locked, be denied,
    // and leave site 2 out of version 5.
    assert_eq!(commit_update(&second, SiteId(1)), 4);
    assert!(second.await_quiescence(Duration::from_secs(5)));
    assert_eq!(commit_update(&second, SiteId(0)), 5);
    assert!(second.await_quiescence(Duration::from_secs(5)));
    for i in 0..n {
        assert_eq!(probe_version(&second, SiteId(i as u8)), 5, "site {i}");
    }
    let audit = second.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.chain_len, 5);
    second.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The epoch of `site`'s live WAL segment, as `/status` reports it.
fn wal_epoch(cluster: &Cluster, site: SiteId) -> Option<u64> {
    match cluster.client(site).request(ClientOp::Status).unwrap() {
        ClientReply::Status { wal_epoch, .. } => wal_epoch,
        other => panic!("unexpected status reply {other:?}"),
    }
}

/// Every file in a site directory, sorted.
fn file_names(site_dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(site_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Live rotation: a durable cluster that commits past the 4 MiB
/// rotation threshold (about 38k one-op rounds, ~110 WAL bytes each per
/// site) snapshots and compacts on every site while it serves. `/status` reports the new epoch, each site directory holds
/// one snapshot/segment pair, and a reboot from that pair recovers
/// every acked version. An amnesiac cluster reports no epoch at all.
#[test]
fn live_rotation_advances_wal_epoch_and_reboot_recovers_every_acked_version() {
    let dir = temp_dir("rotate");
    let n = 5;
    let config = scripted(
        ClusterConfig::new(n, AlgorithmKind::Hybrid).with_data_dir(&dir, FsyncPolicy::Never),
    );
    let sites = || (0..n).map(|i| SiteId(i as u8));

    let first = Cluster::boot(&config).unwrap();
    let boot: Vec<u64> = sites()
        .map(|site| wal_epoch(&first, site).expect("a durable site reports its epoch"))
        .collect();
    let mut client = first.client(SiteId(0));
    let mut acked = 0;
    while sites().any(|site| wal_epoch(&first, site) == Some(boot[site.index()])) {
        assert!(acked < 60_000, "no rotation after {acked} commits");
        for _ in 0..500 {
            match client.update() {
                Ok(ClientReply::Committed { version }) => acked = version,
                // A refused or timed-out round: the next update retries.
                Ok(_) => {}
                Err(e) => panic!("client request failed: {e}"),
            }
        }
    }
    assert!(first.await_quiescence(Duration::from_secs(5)));
    let rotated: Vec<u64> = sites()
        .map(|site| wal_epoch(&first, site).unwrap())
        .collect();
    first.shutdown();
    for (i, epoch) in rotated.iter().enumerate() {
        assert!(*epoch > boot[i], "site {i} never rotated");
        let names = file_names(&dir.join(format!("site-{i}")));
        assert_eq!(
            names,
            [format!("snap-{epoch:016}"), format!("wal-{epoch:016}")],
            "site {i}"
        );
    }

    // Every acked version survives: the chain is the longest
    // recovered log, and the next commit extends it.
    let second = Cluster::boot(&config).unwrap();
    let audit = second.audit().unwrap();
    assert!(audit.consistent, "{:?}", audit.violations);
    assert!(
        audit.chain_len >= acked,
        "chain {} < acked {acked}",
        audit.chain_len
    );
    assert_eq!(commit_update(&second, SiteId(1)), audit.chain_len + 1);
    for site in sites() {
        assert!(wal_epoch(&second, site).unwrap() > rotated[site.index()]);
    }
    second.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();

    let amnesiac = Cluster::boot(&ClusterConfig::new(n, AlgorithmKind::Hybrid)).unwrap();
    assert_eq!(wal_epoch(&amnesiac, SiteId(0)), None);
    amnesiac.shutdown();
}
