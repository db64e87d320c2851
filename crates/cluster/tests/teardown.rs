//! `Cluster::shutdown` must join every thread it spawned. A leaked
//! thread would show up here as a `dynvote-*` entry in
//! `/proc/self/task` after shutdown returns, and in production as a
//! reactor still holding ports. While the cluster runs, the census is
//! exact: one thread per site — under TCP the reactor that hosts the
//! node — on either transport, however many objects it hosts, and
//! whether its sites are healthy, crashed or partitioned. A boot that
//! fails leaves no thread behind.

use dynvote_cluster::{
    BootError, ClientReply, Cluster, ClusterConfig, FrontDoorConfig, TransportKind,
};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_storage::FsyncPolicy;
use std::time::Duration;

/// Names (kernel `comm`, truncated to 15 bytes) of live threads that
/// belong to the cluster runtime.
fn dynvote_threads() -> Vec<String> {
    let mut found = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return found; // not Linux: nothing to scan, nothing to leak
    };
    for task in tasks.flatten() {
        let comm_path = task.path().join("comm");
        if let Ok(comm) = std::fs::read_to_string(comm_path) {
            let comm = comm.trim();
            if comm.starts_with("dynvote") {
                found.push(comm.to_owned());
            }
        }
    }
    found
}

/// What a running `config` cluster's census must read, by kernel
/// `comm`: exactly one `dynvote-node-i` per site, on either transport —
/// and no other `dynvote-*` thread.
fn expected_threads(config: &ClusterConfig) -> Vec<String> {
    let mut names: Vec<String> = (0..config.n).map(|i| format!("dynvote-node-{i}")).collect();
    names.sort();
    names
}

fn assert_census(config: &ClusterConfig) {
    if cfg!(target_os = "linux") {
        let mut running = dynvote_threads();
        running.sort();
        assert_eq!(running, expected_threads(config), "thread census");
    }
}

fn run_and_shutdown(config: &ClusterConfig) {
    let cluster = Cluster::boot(config).expect("boot");
    let mut client = cluster.client(SiteId(0));
    for key in 0..config.objects as u32 {
        let reply = client.update_key(key).expect("update");
        assert!(matches!(reply, ClientReply::Committed { .. }), "{reply:?}");
    }
    assert_census(config);
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    cluster.shutdown();
}

// One test function on purpose: the `/proc/self/task` scan is
// process-wide, so concurrently running tests would see each other's
// threads.
#[test]
fn shutdown_joins_every_thread() {
    let before = dynvote_threads();
    assert!(
        before.is_empty(),
        "stray threads before the test: {before:?}"
    );

    // Channel transport: one node thread per site, however many
    // objects.
    run_and_shutdown(&ClusterConfig::new(3, AlgorithmKind::DynamicVoting).with_objects(8));

    // TCP transport with the HTTP front door: still one thread per
    // site, which owns the site's sockets as well as its kernels.
    run_and_shutdown(
        &ClusterConfig::new(5, AlgorithmKind::Hybrid)
            .with_transport(TransportKind::Tcp)
            .with_objects(8)
            .with_http(FrontDoorConfig::default()),
    );

    let after = dynvote_threads();
    assert!(after.is_empty(), "threads leaked past shutdown: {after:?}");

    // Teardown must also be clean when sites are crashed or
    // partitioned at shutdown time (reactors mid-reconnect-backoff).
    let config = ClusterConfig::new(5, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig::default());
    let cluster = Cluster::boot(&config).expect("boot");
    let mut client = cluster.client(SiteId(0));
    client.update().expect("update");
    cluster.crash(SiteId(4)).expect("crash");
    let majority = dynvote_core::SiteSet::from_sites([0, 1, 2].map(SiteId));
    let minority = dynvote_core::SiteSet::from_sites([SiteId(3), SiteId(4)]);
    cluster
        .set_partition(&[majority, minority])
        .expect("partition");
    client.update().expect("update under partition");
    assert_census(&config);
    cluster.shutdown();

    let after = dynvote_threads();
    assert!(
        after.is_empty(),
        "threads leaked past faulted shutdown: {after:?}"
    );

    // A boot whose stores fail to open leaves nothing running, on
    // either transport: boot joins every site thread, whether its own
    // open failed or it was waiting for go, and the error names the
    // lowest failing site.
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let dir = std::env::temp_dir().join(format!(
            "dynvote-teardown-boot-{}-{transport:?}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where a site's data directory should be.
        std::fs::write(dir.join("site-2"), b"not a directory").unwrap();
        std::fs::write(dir.join("site-3"), b"not a directory").unwrap();
        let config = ClusterConfig::new(5, AlgorithmKind::Hybrid)
            .with_transport(transport)
            .with_data_dir(&dir, FsyncPolicy::Always);
        match Cluster::boot(&config) {
            Err(BootError::Storage { site, .. }) => assert_eq!(site, SiteId(2), "{transport:?}"),
            Err(other) => panic!("{transport:?}: expected a storage error, got {other}"),
            Ok(_) => panic!("{transport:?}: boot over regular files must fail"),
        }
        let after = dynvote_threads();
        assert!(
            after.is_empty(),
            "{transport:?}: threads left running by a failed boot: {after:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Only the lowest site fails: every other site opens its store,
    // builds its node and waits for a go that never comes. Under TCP at
    // a fixed port base, the failed boot also releases every port, so
    // booting again there on a good directory succeeds at once.
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let dir = std::env::temp_dir().join(format!(
            "dynvote-teardown-site0-{}-{transport:?}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("site-0"), b"not a directory").unwrap();
        let mut config = ClusterConfig::new(5, AlgorithmKind::Hybrid)
            .with_transport(transport)
            .with_data_dir(&dir, FsyncPolicy::Always);
        if transport == TransportKind::Tcp {
            config = config.with_port_base(7880);
        }
        match Cluster::boot(&config) {
            Err(BootError::Storage { site, .. }) => assert_eq!(site, SiteId(0), "{transport:?}"),
            Err(other) => panic!("{transport:?}: expected a storage error, got {other}"),
            Ok(_) => panic!("{transport:?}: boot over a regular file must fail"),
        }
        let after = dynvote_threads();
        assert!(
            after.is_empty(),
            "{transport:?}: threads left running by a failed boot: {after:?}"
        );
        std::fs::remove_file(dir.join("site-0")).unwrap();
        run_and_shutdown(&config);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let after = dynvote_threads();
    assert!(after.is_empty(), "threads leaked past reboot: {after:?}");
}
