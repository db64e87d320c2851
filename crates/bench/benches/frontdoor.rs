//! Bench: HTTP front-door throughput under paced load.
//!
//! The e2e bench (`e2e_cluster`) measures the binary wire path with
//! closed-loop workers. This bench measures the other front: the
//! [`LoadGen`] paced on a fixed clock against the HTTP/1.1 front door,
//! each op on its own connection through the per-node epoll reactor —
//! connect, parse, admission, node round-trip, response, close. Two
//! workloads:
//!
//! * `sustained` — an arrival rate the cluster absorbs; the number to
//!   watch is committed throughput and the intended-arrival p99;
//! * `overload` — every worker aimed at one node with admission capped
//!   at 1 inflight op: exercises the 429 reject fast path (which must
//!   stay fast, or overload turns into collapse).
//!
//! Every run ends with a log audit so a throughput number from an
//! inconsistent cluster cannot be reported. One line per run goes to
//! stderr and each run's JSON report to stdout. Set
//! `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, FrontDoorConfig, HttpClient, LoadGen, LoadGenConfig, LoadReport,
    TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const WORKERS: usize = 16;

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
    config: LoadGenConfig,
) -> LoadReport {
    let cluster_config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig {
            http_port_base: None,
            max_inflight,
            max_conns: 8192,
        });
    let cluster = Cluster::boot(&cluster_config).expect("cluster boots");
    let targets = (0..WORKERS)
        .map(|w| -> Box<dyn WorkloadTarget> {
            let site = SiteId((w % target_sites) as u8);
            Box::new(HttpClient::new(cluster.http_addr(site).expect("http addr")))
        })
        .collect();
    let mut report = LoadGen::run(&config, targets).expect("paced run");
    report.algorithm = "hybrid".into();
    report.transport = "http".into();
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
    assert_eq!(report.transport_errors, 0, "{workload}: transport errors");
    eprintln!(
        "{:<10} {:>8} offered  {:>8} committed  {:>6} x429  {:>10.0} commits/sec  p99 {:>7.3} ms",
        workload,
        report.offered,
        report.committed,
        report.overloaded,
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
    let load = |rate, read_fraction, seed| LoadGenConfig {
        duration: duration(),
        rate: Some(rate),
        read_fraction,
        seed,
        ..LoadGenConfig::default()
    };
    run("sustained", 512, SITES, load(800.0, 0.1, 42));
    let overload = run("overload", 1, 1, load(10_000.0, 0.0, 43));
    assert!(overload.overloaded > 0, "the 429 fast path never fired");
}
