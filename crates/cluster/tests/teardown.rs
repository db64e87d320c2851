//! `Cluster::shutdown` must join every thread it spawned — node
//! threads and reactor threads alike. A leaked thread would show up
//! here as a `dynvote-*` entry in `/proc/self/task` after shutdown
//! returns, and in production as a reactor still holding ports. While
//! the cluster runs, the census is exact: one node thread per site,
//! plus one reactor per site under TCP, however many objects it hosts.

use dynvote_cluster::{ClientReply, Cluster, ClusterConfig, FrontDoorConfig, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId};
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
/// `comm`: one `dynvote-node-i` per site, plus one `dynvote-reactor-i`
/// per site under TCP — and no other `dynvote-*` thread.
fn expected_threads(config: &ClusterConfig) -> Vec<String> {
    let comm = |name: String| name[..name.len().min(15)].to_owned();
    let mut names: Vec<String> = (0..config.n)
        .map(|i| comm(format!("dynvote-node-{i}")))
        .collect();
    if config.transport == TransportKind::Tcp {
        names.extend((0..config.n).map(|i| comm(format!("dynvote-reactor-{i}"))));
    }
    names.sort();
    names
}

fn run_and_shutdown(config: &ClusterConfig) {
    let cluster = Cluster::boot(config).expect("boot");
    let mut client = cluster.client(SiteId(0));
    for key in 0..config.objects as u32 {
        let reply = client.update_key(key).expect("update");
        assert!(matches!(reply, ClientReply::Committed { .. }), "{reply:?}");
    }
    if cfg!(target_os = "linux") {
        let mut running = dynvote_threads();
        running.sort();
        assert_eq!(running, expected_threads(config), "thread census");
    }
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

    // Channel transport: node threads only, however many objects.
    run_and_shutdown(&ClusterConfig::new(3, AlgorithmKind::DynamicVoting).with_objects(8));

    // TCP transport with the HTTP front door: node threads plus one
    // reactor thread per node, each owning live sockets.
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
    cluster.shutdown();

    let after = dynvote_threads();
    assert!(
        after.is_empty(),
        "threads leaked past faulted shutdown: {after:?}"
    );
}
