//! Bench: commit pipelining under single-object contention.
//!
//! One channel-transport run over a five-site hybrid cluster:
//! `channel/contended` has 32 closed-loop writers hammer ONE object
//! through one coordinator, the worst case for one-op-per-round dynamic
//! voting. Updates that queue behind the object's lock share the next
//! vote/catch-up/commit round, up to `dynvote_node::MAX_BATCH` of them
//! as consecutive log entries. The row is a capacity reading, not a
//! gate: that queued updates share a round is pinned exactly by the
//! `8 ops, one key` row of the per-commit cost golden
//! (`crates/cluster/tests/cost.txt`).
//!
//! The run ends with a log audit and a client/coordinator commit-count
//! cross-check, so a fast-but-wrong pipeline cannot be reported.
//!
//! One line goes to stderr and the run's JSON report to stdout. Set
//! `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, LoadGen, LoadGenConfig, TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const WORKERS: usize = 32;
const LABEL: &str = "channel/contended";

fn duration() -> Duration {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(5)
    }
}

fn main() {
    let config =
        ClusterConfig::new(SITES, AlgorithmKind::Hybrid).with_transport(TransportKind::Channel);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        duration: duration(),
        read_fraction: 0.0,
        seed: 42,
        ..LoadGenConfig::default()
    };
    let targets = (0..WORKERS)
        .map(|_| -> Box<dyn WorkloadTarget> { Box::new(cluster.client(SiteId(0))) })
        .collect();
    let mut report = LoadGen::run(&loadgen, targets).expect("load generation runs");
    report.algorithm = "hybrid".into();
    report.transport = LABEL.into();
    report.sites = SITES;
    dynvote_bench::assert_audited(&cluster, LABEL, report.committed);
    cluster.shutdown();
    eprintln!(
        "{:<26} {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  p99 {:>7.3} ms",
        LABEL,
        report.committed,
        report.throughput_per_sec,
        report.update_latency.p50_ms,
        report.update_latency.p99_ms
    );
    println!("{}", report.to_json());
}
