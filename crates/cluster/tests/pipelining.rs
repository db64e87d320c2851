//! Commit pipelining at the node boundary: ops against a locked object
//! queue per object instead of being refused, drain into multi-op
//! quorum rounds when the lock frees, and — the part that matters when
//! things go wrong — every queued op resolves **exactly once**, whether
//! the round commits, aborts, or the node crashes out from under it.

use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{Cluster, ClusterConfig, ShardStats};
use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// `threads` closed-loop clients, each firing `ops` updates at object 0
/// through `site`. Returns per-outcome tallies; panics if any request
/// transport-fails (a hang or a double-resolution would surface here).
fn burst(cluster: &Cluster, site: SiteId, threads: usize, ops: usize) -> Tallies {
    let tallies = Arc::new(Tallies::default());
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let mut client = cluster.client(site);
            let tallies = Arc::clone(&tallies);
            thread::spawn(move || {
                for _ in 0..ops {
                    let reply = client.update_key(0).expect("every op gets one reply");
                    tallies.count(&reply);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("burst thread");
    }
    Arc::try_unwrap(tallies).expect("threads joined")
}

#[derive(Debug, Default)]
struct Tallies {
    committed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    down: AtomicU64,
    overloaded: AtomicU64,
}

impl Tallies {
    fn count(&self, reply: &ClientReply) {
        let counter = match reply {
            ClientReply::Committed { .. } => &self.committed,
            ClientReply::Rejected => &self.rejected,
            ClientReply::TimedOut => &self.timed_out,
            ClientReply::Down => &self.down,
            ClientReply::Overloaded => &self.overloaded,
            other => panic!("unexpected reply {other:?}"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.timed_out.load(Ordering::Relaxed)
            + self.down.load(Ordering::Relaxed)
            + self.overloaded.load(Ordering::Relaxed)
    }
}

/// The headline behavior: a contended burst against one object is
/// absorbed by the per-object queue — no refusals, every op committed,
/// and the batch-size histogram records multi-op rounds.
#[test]
fn contended_burst_commits_without_busy() {
    const THREADS: usize = 8;
    const OPS: usize = 25;
    let config = ClusterConfig::new(5, AlgorithmKind::Hybrid);
    let cluster = Cluster::boot(&config).expect("boot");

    let tallies = burst(&cluster, SiteId(0), THREADS, OPS);
    let expected = (THREADS * OPS) as u64;
    assert_eq!(
        tallies.committed.load(Ordering::Relaxed),
        expected,
        "queued ops must all commit: {tallies:?}"
    );

    // The coordinator's stats must show at least one multi-op round:
    // with 8 closed-loop threads on one object, rounds overlap arrivals.
    let mut client = cluster.client(SiteId(0));
    match client.request(ClientOp::ShardStats).expect("shard stats") {
        ClientReply::ShardStats { workers, counts } => {
            let workers = workers as usize;
            let names = ShardStats::names_for(workers);
            let multi: u64 = names
                .iter()
                .zip(&counts)
                .filter(|(name, _)| {
                    name.starts_with("pipeline_batch_") && *name != "pipeline_batch_le1"
                })
                .map(|(_, &count)| count)
                .sum();
            assert!(
                multi > 0,
                "no multi-op rounds recorded: {names:?} {counts:?}"
            );
            let peak_at = names
                .iter()
                .position(|n| n == "pipeline_queue_peak_w0")
                .expect("pipeline queue peak counter");
            assert!(counts[peak_at] > 0, "queue never held an op: {counts:?}");
        }
        other => panic!("unexpected shard-stats reply {other:?}"),
    }

    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.commits, expected, "ledger disagrees with clients");
    cluster.shutdown();
}

/// The abort path: a partition lands mid-burst, wedging the coordinator
/// into a non-distinguished minority. Every op — in flight, queued, or
/// submitted after the cut — must resolve exactly once (the closed
/// loops would hang or die on a dropped or doubled reply), and healing
/// restores commit service with logs that audit clean.
#[test]
fn partition_mid_batch_resolves_every_queued_op_exactly_once() {
    const THREADS: usize = 6;
    const OPS: usize = 8;
    let s = |text: &str| SiteSet::parse(text).expect("valid site list");
    let config = ClusterConfig::new(5, AlgorithmKind::DynamicVoting);
    let cluster = Cluster::boot(&config).expect("boot");

    // Fire the burst at site A, then cut {A,B} | {C,D,E} while rounds
    // and queues are live: A is left without a distinguished partition,
    // so in-flight rounds and everything queued behind them abort.
    let tallies = thread::scope(|scope| {
        let cluster_ref = &cluster;
        let handle = scope.spawn(move || burst(cluster_ref, SiteId(0), THREADS, OPS));
        thread::sleep(Duration::from_millis(30));
        cluster_ref
            .set_partition(&[s("AB"), s("CDE")])
            .expect("cut");
        handle.join().expect("burst under partition")
    });
    let expected = (THREADS * OPS) as u64;
    assert_eq!(
        tallies.total(),
        expected,
        "every op resolves exactly once: {tallies:?}"
    );

    // Healing restores service: the wedge left no queue residue.
    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let reply = cluster.client(SiteId(0)).update_key(0).expect("post-heal");
    assert!(
        matches!(reply, ClientReply::Committed { .. }),
        "commits must resume after healing: {reply:?}"
    );
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}

/// The crash path: killing the coordinator drains its per-object
/// queues with `Down` — queued ops are never silently dropped — and
/// recovery brings the object back with logs that audit clean.
#[test]
fn crash_mid_batch_drains_queues_with_down() {
    const THREADS: usize = 6;
    const OPS: usize = 10;
    let config = ClusterConfig::new(5, AlgorithmKind::Hybrid);
    let cluster = Cluster::boot(&config).expect("boot");

    let tallies = thread::scope(|scope| {
        let cluster_ref = &cluster;
        let handle = scope.spawn(move || burst(cluster_ref, SiteId(0), THREADS, OPS));
        thread::sleep(Duration::from_millis(40));
        cluster_ref.crash(SiteId(0)).expect("crash");
        thread::sleep(Duration::from_millis(100));
        cluster_ref.recover(SiteId(0)).expect("recover");
        handle.join().expect("burst across crash")
    });
    let expected = (THREADS * OPS) as u64;
    assert_eq!(
        tallies.total(),
        expected,
        "every op resolves exactly once across the crash: {tallies:?}"
    );
    assert!(
        tallies.committed.load(Ordering::Relaxed) > 0,
        "some ops commit before and after the crash: {tallies:?}"
    );

    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}
