//! Peer suspicion on a live cluster: one silent site costs a node one
//! straggler grace in total — not one vote deadline per commit per
//! object — the rounds already waiting when the node finds out close
//! with the one that found out, a refusal still takes the full
//! deadline, and the suspicion is gone the moment the site is heard
//! from again.
//!
//! Driven over TCP with the HTTP front door up, so the assertions read
//! the published signal (`/metrics`, `/status`) the way an operator
//! would — counts wherever a counter exists, the clock only for what
//! "a grace, not a deadline" means.

use dynvote_cluster::wire::ClientReply;
use dynvote_cluster::{Cluster, ClusterConfig, FrontDoorConfig, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const N: usize = 5;
const OBJECTS: u32 = 16;
/// Long enough that "waited it out" and "did not" cannot be confused by
/// a busy test machine.
const VOTE_DEADLINE: Duration = Duration::from_millis(120);
/// The straggler grace of a node whose peers answer in well under a
/// millisecond: the fixed fraction of the vote deadline.
const GRACE_FLOOR: Duration = Duration::from_millis(15);

fn boot() -> Cluster {
    let mut config = ClusterConfig::new(N, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_objects(OBJECTS as usize)
        .with_http(FrontDoorConfig::default());
    config.vote_deadline = VOTE_DEADLINE;
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

/// A per-peer array of `site`'s `/status`, e.g. `vote_grace_missed`.
fn status_array(cluster: &Cluster, site: SiteId, field: &str) -> Vec<u64> {
    let status = get(cluster, site, "/status");
    let list = status
        .split_once(&format!("\"{field}\":["))
        .and_then(|(_, rest)| rest.split_once(']'))
        .unwrap_or_else(|| panic!("no {field} in {status}"))
        .0;
    list.split(',')
        .map(|n| n.parse().expect("a count"))
        .collect()
}

fn closed_early(cluster: &Cluster, site: SiteId) -> u64 {
    let key = format!(
        "dynvote_rounds_closed_early_total{{site=\"{}\"}}",
        site.index()
    );
    metric(cluster, site, &key)
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

#[test]
fn one_crash_costs_one_grace_inline() {
    let cluster = boot();
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
        first >= GRACE_FLOOR && first < VOTE_DEADLINE / 2,
        "the first round waits E's grace out, not its deadline: {first:?}"
    );
    assert_eq!(suspected(&cluster, a, e), 1);
    for key in 1..OBJECTS {
        let took = timed_update(&cluster, a, key);
        assert!(
            took < GRACE_FLOOR,
            "key {key} paid for E's silence again: {took:?}"
        );
        assert_eq!(cardinality(&cluster, a, key), 4);
    }
    assert_eq!(closed_early(&cluster, a), u64::from(OBJECTS) - 1);
    let missed = metric(
        &cluster,
        a,
        "dynvote_vote_grace_missed_total{site=\"0\",peer=\"4\"}",
    );
    assert_eq!(missed, 1, "one grace for the whole outage");
    let status = get(&cluster, a, "/status");
    assert!(status.contains("\"suspected\":\"E\""), "{status}");
    assert!(
        status.contains("\"vote_grace_missed\":[0,0,0,0,1]"),
        "{status}"
    );
    assert!(
        status.contains("\"vote_deadline_missed\":[0,0,0,0,0]"),
        "no deadline was waited out: {status}"
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

/// Eight updates on eight keys, begun one after another while the node
/// still believes E alive: all eight are voting, live votes in hand,
/// when the first grace runs out. That round finds out; the push closes
/// the rest with it, long before their own graces.
#[test]
fn rounds_already_waiting_close_with_the_one_that_found_out() {
    const BURST: u32 = 8;
    let cluster = boot();
    let (a, e) = (SiteId(0), SiteId(4));
    for key in 0..OBJECTS {
        timed_update(&cluster, a, key);
    }
    settle(&cluster);
    cluster.crash(e).expect("crash");

    // One writer per key, each started by the main thread: the rounds
    // begin in key order, spread over two thirds of the grace.
    let slowest = thread::scope(|scope| {
        let writers: Vec<_> = (0..BURST)
            .map(|key| {
                let (go, gone) = mpsc::channel::<()>();
                let cluster = &cluster;
                let writer = scope.spawn(move || {
                    gone.recv().expect("start signal");
                    timed_update(cluster, a, key)
                });
                (go, writer)
            })
            .collect();
        for (go, _) in &writers {
            go.send(()).expect("writer waits");
            thread::sleep(GRACE_FLOOR * 2 / 3 / BURST);
        }
        writers
            .into_iter()
            .map(|(_, writer)| writer.join().expect("writer"))
            .max()
            .expect("eight writers")
    });
    assert!(
        slowest < VOTE_DEADLINE / 2,
        "a round waited out more than a grace: {slowest:?}"
    );
    let at_grace = status_array(&cluster, a, "vote_grace_missed");
    assert_eq!(at_grace[..4], [0, 0, 0, 0], "{at_grace:?}");
    let pushed = closed_early(&cluster, a);
    assert_eq!(
        at_grace[4] + pushed,
        u64::from(BURST),
        "every round closed without E, at a grace or on the push"
    );
    assert!(at_grace[4] >= 1, "some round has to find out");
    assert!(
        pushed >= 1,
        "every round waited for a grace of its own: the set's growth \
         never reached the rounds already voting"
    );
    assert_eq!(
        status_array(&cluster, a, "vote_deadline_missed"),
        [0, 0, 0, 0, 0]
    );
    for key in 0..BURST {
        assert_eq!(cardinality(&cluster, a, key), 4, "key {key}");
    }
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}

/// A refusal is never early. With C, D and E down, A and B are no
/// quorum: the grace finds nothing distinguished and does nothing, the
/// round waits the *full* vote deadline, and only then is the client
/// told `Rejected`.
#[test]
fn a_minority_is_refused_only_at_the_full_deadline() {
    let cluster = boot();
    let a = SiteId(0);
    for key in 0..OBJECTS {
        timed_update(&cluster, a, key);
    }
    settle(&cluster);
    for site in [SiteId(2), SiteId(3), SiteId(4)] {
        cluster.crash(site).expect("crash");
    }
    let start = Instant::now();
    let reply = cluster.client(a).update_key(0).expect("update");
    let took = start.elapsed();
    assert_eq!(reply, ClientReply::Rejected);
    assert!(took >= VOTE_DEADLINE, "refused early, after {took:?}");
    assert_eq!(
        status_array(&cluster, a, "vote_deadline_missed"),
        [0, 0, 1, 1, 1]
    );
    assert_eq!(
        status_array(&cluster, a, "vote_grace_missed"),
        [0, 0, 0, 0, 0]
    );
    assert_eq!(closed_early(&cluster, a), 0);
    // Suspecting all three changes nothing: still no quorum, still the
    // full deadline, still `Rejected`.
    let start = Instant::now();
    let reply = cluster.client(a).update_key(1).expect("update");
    assert_eq!(reply, ClientReply::Rejected);
    assert!(start.elapsed() >= VOTE_DEADLINE);
    assert_eq!(closed_early(&cluster, a), 0);
    cluster.shutdown();
}

/// A live peer suspected by mistake — here: cut off, then reconnected
/// without a sound — is cleared by its own next vote, however late, and
/// takes part in the round after.
#[test]
fn a_falsely_suspected_peer_clears_itself_with_its_late_vote() {
    let cluster = boot();
    let (a, e) = (SiteId(0), SiteId(4));
    let s = |text: &str| SiteSet::parse(text).expect("valid site list");
    for _ in 0..8 {
        timed_update(&cluster, a, 0);
    }
    settle(&cluster);

    cluster.set_partition(&[s("ABCD"), s("E")]).expect("cut");
    let cut = timed_update(&cluster, a, 0);
    assert!(
        cut >= GRACE_FLOOR && cut < VOTE_DEADLINE,
        "one grace, took {cut:?}"
    );
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
