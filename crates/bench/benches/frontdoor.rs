//! Bench: HTTP front-door throughput under open-loop load.
//!
//! The closed-loop e2e bench (`e2e_cluster`) measures the binary wire
//! path with self-pacing workers. This bench measures the other front:
//! paced arrivals against the HTTP/1.1 front door, each op on its own
//! connection through the per-node epoll reactor — connect, parse,
//! admission, node round-trip, response, close. Two workloads:
//!
//! * `sustained` — an arrival rate the cluster absorbs; the number to
//!   watch is committed throughput and the intended-arrival p99;
//! * `overload` — every arrival aimed at one node with admission
//!   capped at 1 inflight op: exercises the 429 reject fast path
//!   (which must stay fast, or overload turns into collapse).
//!
//! Every run ends with a ledger audit so a throughput number from an
//! inconsistent cluster cannot be reported. One line per run goes to
//! stderr and each run's JSON report to stdout. Set
//! `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, FrontDoorConfig, OpenLoop, OpenLoopConfig, OpenLoopReport,
    TransportKind,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::net::SocketAddr;
use std::time::Duration;

const SITES: usize = 5;

fn duration() -> Duration {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        Duration::from_millis(800)
    } else {
        Duration::from_secs(5)
    }
}

fn run(
    workload: &str,
    max_inflight: u64,
    target_sites: usize,
    config: OpenLoopConfig,
) -> OpenLoopReport {
    let cluster_config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig {
            http_port_base: None,
            max_inflight,
            max_conns: 8192,
        });
    let cluster = Cluster::boot(&cluster_config).expect("cluster boots");
    let targets: Vec<SocketAddr> = (0..target_sites)
        .map(|i| cluster.http_addr(SiteId(i as u8)).expect("http addr"))
        .collect();
    let mut report = OpenLoop::run(&config, &targets).expect("open-loop run");
    report.algorithm = "hybrid".into();
    report.sites = SITES;
    assert!(
        cluster.await_quiescence(Duration::from_secs(10)),
        "{workload}: cluster failed to quiesce"
    );
    let audit = cluster.audit().expect("audit succeeds");
    assert!(
        audit.consistent,
        "{workload}: cluster metadata inconsistent after load"
    );
    cluster.shutdown();
    assert!(report.committed > 0, "{workload}: nothing committed");
    assert_eq!(
        (report.connect_errors, report.http_errors),
        (0, 0),
        "{workload}: transport errors"
    );
    eprintln!(
        "{:<10} {:>8} offered  {:>8} committed  {:>6} x429  {:>10.0} commits/sec  p99 {:>7.3} ms",
        workload,
        report.offered,
        report.committed,
        report.rejected_429,
        report.throughput_per_sec,
        report.update_latency.p99_ms
    );
    println!(
        "{{\"workload\": \"{workload}\", \"report\": {}}}",
        report.to_json()
    );
    report
}

fn main() {
    let load = |rate, read_fraction, seed| OpenLoopConfig {
        rate,
        duration: duration(),
        connections: 2048,
        read_fraction,
        seed,
        ..OpenLoopConfig::default()
    };
    run("sustained", 512, SITES, load(800.0, 0.1, 42));
    let overload = run("overload", 1, 1, load(3000.0, 0.0, 43));
    assert!(overload.rejected_429 > 0, "the 429 fast path never fired");
}
