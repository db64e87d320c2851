//! Bench: multi-object sharded data plane, end to end.
//!
//! The single-object cluster (`e2e_cluster`) serializes every commit
//! behind one shard lock: a site can hold at most one prepared
//! transaction, so closed-loop workers queue no matter how many there
//! are. This bench measures what the sharded data plane buys: `KEYS`
//! independent objects hosted on the same five sites, keyed workers
//! spread across sites and shards, commit rounds from different shards
//! batched into shared peer frames and sealed by one group-commit
//! barrier per node-loop batch.
//!
//! Runs the [`LoadGen`] closed loop with a uniform key distribution
//! over both transports:
//!
//! * `channel` — in-process transport: the sharded runtime's floor;
//! * `tcp` — framed loopback TCP with peer-frame batching: the full
//!   production stack.
//!
//! Each run ends with a log audit (per-object chains, every commit
//! accounted for) so a throughput number from a silently-broken cluster
//! cannot be reported.
//!
//! One line per run goes to stderr and each run's JSON report to
//! stdout. Set `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, KeyDist, LoadGen, LoadGenConfig, TcpClient, TransportKind,
    WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const WORKERS: usize = 16;
const KEYS: u32 = 128;

fn duration() -> Duration {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(5)
    }
}

fn run(kind: TransportKind) {
    let name = match kind {
        TransportKind::Channel => "channel",
        TransportKind::Tcp => "tcp",
    };
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(kind)
        .with_objects(KEYS as usize);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        duration: duration(),
        rate: None,
        read_fraction: 0.0,
        keys: KEYS,
        key_dist: KeyDist::Uniform,
        seed: 42,
    };
    let targets = (0..WORKERS)
        .map(|w| -> Box<dyn WorkloadTarget> {
            let site = SiteId((w % SITES) as u8);
            match kind {
                TransportKind::Channel => Box::new(cluster.client(site)),
                TransportKind::Tcp => {
                    let addr = cluster.addr(site).expect("tcp cluster publishes addrs");
                    Box::new(TcpClient::connect(addr).expect("client connects"))
                }
            }
        })
        .collect();
    let mut report = LoadGen::run(&loadgen, targets).expect("load generation runs");
    report.algorithm = "hybrid".into();
    report.transport = name.into();
    report.sites = SITES;
    dynvote_bench::assert_audited(&cluster, name, report.committed);
    let shard_sum: u64 = report.per_shard_commits.iter().sum();
    assert_eq!(
        shard_sum, report.committed,
        "{name}: per-shard commit counts do not sum to the aggregate"
    );
    cluster.shutdown();
    let busiest = report.per_shard_commits.iter().max().copied().unwrap_or(0);
    let quietest = report.per_shard_commits.iter().min().copied().unwrap_or(0);
    eprintln!(
        "{:<8} {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  p99 {:>7.3} ms  \
         per-shard [{quietest}..{busiest}]",
        name,
        report.committed,
        report.throughput_per_sec,
        report.update_latency.p50_ms,
        report.update_latency.p99_ms
    );
    println!("{}", report.to_json());
}

fn main() {
    run(TransportKind::Channel);
    run(TransportKind::Tcp);
}
