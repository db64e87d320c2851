//! No producer can leave a TCP site deaf. A TCP site's one thread
//! sleeps in `epoll_pwait` until a socket, one of its deadlines or its
//! waker says otherwise, while control ops, in-process clients and
//! shutdown arrive on an `mpsc` inbox that no socket announces. A send
//! into that inbox that skipped the wake — PR 12's deaf-waker bug in a
//! new place — would leave the op unread until unrelated traffic came
//! by, which on an idle cluster is never. The inbox cannot send without
//! waking; this pins it.
//!
//! The other side of the same contract: a site with nothing to do is
//! not woken at all. Both hosts wait exactly until the node's next
//! deadline, and with none pending a channel site blocks on its inbox
//! until an event arrives — it runs no batch, so no merge barrier.

use dynvote_cluster::{ClientReply, Cluster, ClusterConfig, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::{Duration, Instant};

#[test]
fn idle_tcp_sites_answer_every_probe_promptly() {
    const PROBES: usize = 200;
    const PROMPT: Duration = Duration::from_millis(50);
    let config = ClusterConfig::new(5, AlgorithmKind::Hybrid).with_transport(TransportKind::Tcp);
    let cluster = Cluster::boot(&config).expect("boot");

    // One commit dials the peer mesh; once it has quiesced, every
    // deadline the round armed is retired and no socket carries a byte.
    let reply = cluster.client(SiteId(0)).update().expect("update");
    assert!(matches!(reply, ClientReply::Committed { .. }), "{reply:?}");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));

    for site in (0..config.n).map(SiteId::new) {
        for probe in 0..PROBES {
            let started = Instant::now();
            let reply = cluster.probe(site).expect("probe answered");
            let took = started.elapsed();
            assert!(matches!(reply, ClientReply::Probe { .. }), "{reply:?}");
            assert!(
                took < PROMPT,
                "site {site}: probe {probe} took {took:?} on an idle cluster"
            );
        }
    }

    let started = Instant::now();
    cluster.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}

#[test]
fn idle_channel_sites_run_no_merge_barrier() {
    /// `ShardStats::snapshot` slot of the merge-barrier count.
    const MERGE_BARRIERS: usize = 2;
    let config =
        ClusterConfig::new(5, AlgorithmKind::Hybrid).with_transport(TransportKind::Channel);
    let cluster = Cluster::boot(&config).expect("boot");

    // One commit arms deadlines on every site, and each site clears its
    // own once the round is decided there: from quiescence on, no
    // deadline is left to wake an idle site.
    let reply = cluster.client(SiteId(0)).update().expect("update");
    assert!(matches!(reply, ClientReply::Committed { .. }), "{reply:?}");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));

    let barriers = || -> Vec<u64> {
        (0..config.n)
            .map(|site| {
                cluster
                    .shard_stats(SiteId::new(site))
                    .expect("shard stats")
                    .snapshot()[MERGE_BARRIERS]
            })
            .collect()
    };
    let before = barriers();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(barriers(), before, "idle channel sites woke to run a batch");
    cluster.shutdown();
}
