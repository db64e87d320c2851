//! Bench: commit pipelining under single-object contention.
//!
//! Four channel-transport runs over the same five-site hybrid cluster:
//!
//! * `channel/batch-1` — the e2e workload (four workers spread across
//!   sites, 10% reads) with multi-op rounds disabled. This is the
//!   parity anchor: it must stay within a few percent of the
//!   `e2e_cluster` bench's `channel` row on the same machine, proving
//!   the per-object queue adds no tax when load is light.
//! * `channel/contended-batch-{1,8,64}` — the pipelining sweep: many
//!   closed-loop clients hammer ONE object through one coordinator,
//!   the worst case for one-op-per-round dynamic voting, varying only
//!   `max_batch`. `contended-batch-1` is the single-op baseline (ops
//!   queue behind the object's lock, but every quorum round still
//!   seals exactly one entry); `contended-batch-64` lets one
//!   vote/catch-up/commit round carry up to 64 consecutive log
//!   entries. A full run shows >3x commits/s from 1 → 64; the program
//!   asserts a 2x floor so noise cannot mask a pipelining collapse.
//!
//! Every run ends with a ledger audit and a client/ledger commit-count
//! cross-check, so a fast-but-wrong pipeline cannot be reported.
//!
//! One line per run goes to stderr and each run's JSON report to
//! stdout. Set `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{
    Cluster, ClusterConfig, LoadGen, LoadGenConfig, TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const CONTENDED_WORKERS: usize = 32;
const BATCHES: [usize; 3] = [1, 8, 64];

fn duration() -> Duration {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(5)
    }
}

struct Shape {
    label: String,
    max_batch: usize,
    workers: usize,
    read_fraction: f64,
    spread: bool,
}

impl Shape {
    /// The e2e workload with pipelining disabled: spread coordinators,
    /// mixed reads, default key range — comparable to `e2e_cluster`.
    fn parity() -> Self {
        Shape {
            label: "channel/batch-1".into(),
            max_batch: 1,
            workers: 4,
            read_fraction: 0.1,
            spread: true,
        }
    }

    /// The contention sweep: one object, one coordinator, pure writes.
    fn contended(max_batch: usize) -> Self {
        Shape {
            label: format!("channel/contended-batch-{max_batch}"),
            max_batch,
            workers: CONTENDED_WORKERS,
            read_fraction: 0.0,
            spread: false,
        }
    }
}

/// One run; returns its commits/s.
fn run(shape: &Shape) -> f64 {
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Channel)
        .with_max_batch(shape.max_batch);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        duration: duration(),
        read_fraction: shape.read_fraction,
        seed: 42,
        ..LoadGenConfig::default()
    };
    let targets = (0..shape.workers)
        .map(|w| -> Box<dyn WorkloadTarget> {
            let site = if shape.spread { w % SITES } else { 0 };
            Box::new(cluster.client(SiteId(site as u8)))
        })
        .collect();
    let mut report = LoadGen::run(&loadgen, targets).expect("load generation runs");
    report.algorithm = "hybrid".into();
    report.transport = shape.label.clone();
    report.sites = SITES;
    dynvote_bench::assert_audited(&cluster, &shape.label, report.committed);
    cluster.shutdown();
    eprintln!(
        "{:<26} {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  p99 {:>7.3} ms",
        shape.label,
        report.committed,
        report.throughput_per_sec,
        report.update_latency.p50_ms,
        report.update_latency.p99_ms
    );
    println!("{}", report.to_json());
    report.throughput_per_sec
}

fn main() {
    run(&Shape::parity());
    let contended: Vec<f64> = BATCHES.iter().map(|&b| run(&Shape::contended(b))).collect();
    // Multi-op rounds must pay off under contention: two rows of one
    // run, so the relation holds on any machine.
    let (batch_1, batch_64) = (contended[0], contended[BATCHES.len() - 1]);
    assert!(
        batch_64 > 2.0 * batch_1,
        "contended-batch-64 {batch_64:.0} commits/s is not 2x contended-batch-1 {batch_1:.0}"
    );
}
