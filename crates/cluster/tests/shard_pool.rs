//! Liveness of the node's one kernel thread: a hot object must not
//! starve a cold one. Ops queue per object, and the node merges after
//! every bounded inbox batch, so a flood aimed at one object can never
//! park another object's traffic — or its timers — behind it.

use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{Cluster, ClusterConfig};
use dynvote_core::{AlgorithmKind, SiteId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Flood object 0 (the head of a zipf draw) from several closed-loop
/// threads while serially committing on a cold object. Every cold
/// commit must land promptly: its votes, commit fan-out, and protocol
/// timers all ride the same node loop as the hot traffic, so a stall
/// here means the hot object's FIFO blocked the merge barrier.
#[test]
fn hot_object_does_not_starve_cold_object() {
    const OBJECTS: usize = 4;
    const HOT: u32 = 0;
    const COLD: u32 = 3;
    let config = ClusterConfig::new(3, AlgorithmKind::Hybrid).with_objects(OBJECTS);
    let cluster = Cluster::boot(&config).expect("boot");

    let stop = Arc::new(AtomicBool::new(false));
    let floods: Vec<_> = (0..3u8)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let mut client = cluster.client(SiteId(t % 3));
            thread::spawn(move || {
                let mut offered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Committed, Contended, TimedOut — all fine; the point
                    // is pressure, not success.
                    let _ = client.update_key(HOT);
                    offered += 1;
                }
                offered
            })
        })
        .collect();

    // Cold-object commits under the flood. The generous 5s bound is
    // two orders of magnitude above an unloaded commit; crossing it
    // means the cold object waited on the hot one.
    let mut client = cluster.client(SiteId(0));
    let mut committed = 0u64;
    for _ in 0..10 {
        let t0 = Instant::now();
        let reply = client.update_key(COLD).expect("cold update");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "cold-object update starved for {elapsed:?}: {reply:?}"
        );
        if matches!(reply, ClientReply::Committed { .. }) {
            committed += 1;
        }
    }
    assert!(
        committed >= 8,
        "cold object should commit freely under a hot flood; got {committed}/10"
    );

    stop.store(true, Ordering::Relaxed);
    let offered: u64 = floods.into_iter().map(|t| t.join().expect("flood")).sum();
    assert!(offered > 0, "the flood never offered load");

    // The node counters saw the traffic: one worker row, kernel steps
    // run, and merges.
    match client.request(ClientOp::ShardStats).expect("shard stats") {
        ClientReply::ShardStats { workers, counts } => {
            assert_eq!(workers, 1);
            assert_eq!(counts.len(), 13, "snapshot layout");
            assert!(counts[0] > 0, "no kernel steps counted: {counts:?}");
            assert!(counts[2] > 0, "merges must have run: {counts:?}");
        }
        other => panic!("unexpected shard-stats reply {other:?}"),
    }

    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}
