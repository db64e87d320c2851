//! Peer suspicion on a live cluster: one silent site costs a node one
//! vote deadline in total — not one per commit per object — and the
//! suspicion is gone the moment the site is heard from again.
//!
//! Driven over TCP with the HTTP front door up, so the assertions read
//! the published signal (`/metrics`, `/status`) the way an operator
//! would.

use dynvote_cluster::wire::ClientReply;
use dynvote_cluster::{Cluster, ClusterConfig, FrontDoorConfig, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const N: usize = 5;
const OBJECTS: u32 = 16;
/// Long enough that "waited it out" and "did not" cannot be confused by
/// a busy test machine.
const VOTE_DEADLINE: Duration = Duration::from_millis(120);

fn boot(shard_threads: usize) -> Cluster {
    let mut config = ClusterConfig::new(N, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_objects(OBJECTS as usize)
        .with_shard_threads(shard_threads)
        .with_http(FrontDoorConfig::default());
    config.node.vote_deadline = VOTE_DEADLINE;
    Cluster::boot(&config).expect("boot cluster")
}

fn get(cluster: &Cluster, site: SiteId, path: &str) -> String {
    let addr = cluster.http_addr(site).expect("http addr");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8_lossy(&raw).into_owned()
}

/// One sample of `site`'s `/metrics`, by its full `name{labels}` key.
fn metric(cluster: &Cluster, site: SiteId, key: &str) -> u64 {
    let body = get(cluster, site, "/metrics");
    body.lines()
        .find_map(|line| line.strip_prefix(key)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {key} in:\n{body}"))
}

fn suspected(cluster: &Cluster, site: SiteId, peer: SiteId) -> u64 {
    let key = format!(
        "dynvote_peer_suspected{{site=\"{}\",peer=\"{}\"}}",
        site.index(),
        peer.index()
    );
    metric(cluster, site, &key)
}

/// Commit one update on `key` through `site`; how long it took.
fn timed_update(cluster: &Cluster, site: SiteId, key: u32) -> Duration {
    let start = Instant::now();
    let reply = cluster.client(site).update_key(key).expect("update");
    let took = start.elapsed();
    assert!(
        matches!(reply, ClientReply::Committed { .. }),
        "key {key}: {reply:?}"
    );
    took
}

fn cardinality(cluster: &Cluster, site: SiteId, key: u32) -> u32 {
    match cluster.probe_object(site, key).expect("probe") {
        ClientReply::Probe { meta, .. } => meta.cardinality,
        other => panic!("probe returned {other:?}"),
    }
}

fn settle(cluster: &Cluster) {
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
}

fn one_crash_costs_one_deadline(shard_threads: usize) {
    let cluster = boot(shard_threads);
    let (a, e) = (SiteId(0), SiteId(4));
    for key in 0..OBJECTS {
        let took = timed_update(&cluster, a, key);
        assert!(took < VOTE_DEADLINE / 2, "healthy key {key}: {took:?}");
    }
    settle(&cluster);
    assert_eq!(suspected(&cluster, a, e), 0);

    cluster.crash(e).expect("crash");
    let first = timed_update(&cluster, a, 0);
    assert!(
        first >= VOTE_DEADLINE,
        "the first round must wait E's deadline out, took {first:?}"
    );
    assert_eq!(suspected(&cluster, a, e), 1);
    for key in 1..OBJECTS {
        let took = timed_update(&cluster, a, key);
        assert!(
            took < VOTE_DEADLINE / 2,
            "key {key} paid for E's silence again: {took:?}"
        );
        assert_eq!(cardinality(&cluster, a, key), 4);
    }
    let label = "{site=\"0\"}";
    let early = metric(
        &cluster,
        a,
        &format!("dynvote_rounds_closed_early_total{label}"),
    );
    assert_eq!(early, u64::from(OBJECTS) - 1);
    let missed = metric(
        &cluster,
        a,
        "dynvote_vote_deadline_missed_total{site=\"0\",peer=\"4\"}",
    );
    assert_eq!(missed, 1, "one deadline for the whole outage");
    let status = get(&cluster, a, "/status");
    assert!(status.contains("\"suspected\":\"E\""), "{status}");
    assert!(
        status.contains("\"vote_deadline_missed\":[0,0,0,0,1]"),
        "{status}"
    );
    assert!(status.contains("\"rounds_closed_early\":15"), "{status}");

    // E's restart traffic reaches every peer: nobody suspects it any
    // more, and the next workload commit counts it again.
    cluster.recover(e).expect("recover");
    settle(&cluster);
    for site in (0..N as u8).map(SiteId) {
        for peer in (0..N as u8).map(SiteId).filter(|p| *p != site) {
            assert_eq!(
                suspected(&cluster, site, peer),
                0,
                "site {site} still suspects {peer}"
            );
        }
    }
    let took = timed_update(&cluster, a, 3);
    assert!(took < VOTE_DEADLINE / 2, "after recovery: {took:?}");
    settle(&cluster);
    for site in (0..N as u8).map(SiteId) {
        assert_eq!(cardinality(&cluster, site, 3), 5, "site {site}");
    }

    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}

#[test]
fn one_crash_costs_one_deadline_inline() {
    one_crash_costs_one_deadline(1);
}

#[test]
fn one_crash_costs_one_deadline_four_workers() {
    one_crash_costs_one_deadline(4);
}

/// A live peer suspected by mistake — here: cut off, then reconnected
/// without a sound — is cleared by its own next vote, however late, and
/// takes part in the round after.
#[test]
fn a_falsely_suspected_peer_clears_itself_with_its_late_vote() {
    let cluster = boot(1);
    let (a, e) = (SiteId(0), SiteId(4));
    let s = |text: &str| SiteSet::parse(text).expect("valid site list");
    timed_update(&cluster, a, 0);
    settle(&cluster);

    cluster.set_partition(&[s("ABCD"), s("E")]).expect("cut");
    let cut = timed_update(&cluster, a, 0);
    assert!(cut >= VOTE_DEADLINE, "took {cut:?}");
    assert_eq!(suspected(&cluster, a, e), 1);

    // Healing sends nothing, so A goes on suspecting a peer that is
    // perfectly able to answer.
    cluster.heal_links().expect("heal");
    assert_eq!(suspected(&cluster, a, e), 1);

    // A's next round asks E like everyone else. Whether E's vote makes
    // the round or arrives after it closed, it is a frame from E.
    let healed = timed_update(&cluster, a, 1);
    assert!(healed < VOTE_DEADLINE / 2, "took {healed:?}");
    settle(&cluster);
    assert_eq!(suspected(&cluster, a, e), 0);

    timed_update(&cluster, a, 1);
    settle(&cluster);
    for site in (0..N as u8).map(SiteId) {
        assert_eq!(cardinality(&cluster, site, 1), 5, "site {site}");
    }

    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}
