//! Bench: end-to-end cluster throughput over real transports.
//!
//! Everything above the kernel costs something — wire encoding, framing,
//! transport writes, the node event loop, client round-trips. This bench
//! boots the full `dynvote-cluster` runtime (five sites, hybrid
//! algorithm) and drives it with the [`LoadGen`], closed loop, twice:
//!
//! * `channel` — in-process channel transport: the runtime's floor,
//!   no serialization or sockets;
//! * `tcp` — framed loopback TCP with the batched write path: the
//!   full production stack.
//!
//! Workers spread across all five sites so commits contend the way the
//! paper's workload does. Each run ends with a log audit (every
//! site's log a gapless prefix of one chain, its metadata in step) so a throughput number from a silently-broken cluster
//! cannot become a baseline.
//!
//! One line per run goes to stderr and each run's JSON report to
//! stdout. Set `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, LoadGen, LoadGenConfig, TcpClient, TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const WORKERS: usize = 4;

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
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid).with_transport(kind);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        duration: duration(),
        read_fraction: 0.1,
        seed: 42,
        ..LoadGenConfig::default()
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
    cluster.shutdown();
    eprintln!(
        "{:<8} {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  p99 {:>7.3} ms",
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
