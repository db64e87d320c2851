//! Bench: commit pipelining under single-object contention.
//!
//! Four channel-transport runs over the same five-site hybrid cluster:
//!
//! * `channel/batch-1` — the e2e workload (four workers spread across
//!   sites, 10% reads) with multi-op rounds disabled. This is the
//!   parity anchor: it must stay within a few percent of the
//!   `channel` row in `BENCH_e2e.json`, proving the per-object queue
//!   adds no tax when load is light.
//! * `channel/contended-batch-{1,8,64}` — the pipelining sweep: many
//!   closed-loop clients hammer ONE object through one coordinator,
//!   the worst case for one-op-per-round dynamic voting, varying only
//!   `max_batch`. `contended-batch-1` is the single-op baseline (ops
//!   queue behind the object's lock, but every quorum round still
//!   seals exactly one entry); `contended-batch-64` lets one
//!   vote/catch-up/commit round carry up to 64 consecutive log
//!   entries. The acceptance bar is ≥3x commits/s from 1 → 64.
//!
//! Every run ends with a ledger audit and a client/ledger commit-count
//! cross-check, so a fast-but-wrong pipeline cannot become a baseline.
//!
//! Results land in `BENCH_pipeline.json`. Set `DYNVOTE_BENCH_QUICK=1`
//! for a short CI smoke run with the same schema.

use dynvote_cluster::{Cluster, ClusterConfig, LoadGen, LoadGenConfig, TransportKind};
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
    /// mixed reads, default key range — comparable to `BENCH_e2e.json`.
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

fn run(shape: &Shape) -> String {
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Channel)
        .with_max_batch(shape.max_batch);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        concurrency: shape.workers,
        duration: duration(),
        read_fraction: shape.read_fraction,
        seed: 42,
        ..LoadGenConfig::default()
    };
    let spread = shape.spread;
    let mut report = LoadGen::run(&loadgen, |w| {
        let site = if spread {
            SiteId((w % SITES) as u8)
        } else {
            SiteId(0)
        };
        Box::new(cluster.client(site))
    })
    .expect("load generation runs");
    report.algorithm = "hybrid".into();
    report.transport = shape.label.clone();
    report.sites = SITES;
    let audit = cluster.audit().expect("audit succeeds");
    assert!(
        audit.consistent,
        "{}: cluster metadata inconsistent after load",
        shape.label
    );
    assert_eq!(
        audit.commits, report.committed,
        "{}: ledger commits disagree with client-observed commits",
        shape.label
    );
    cluster.shutdown();
    println!(
        "{:<26} {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  p99 {:>7.3} ms",
        shape.label,
        report.committed,
        report.throughput_per_sec,
        report.update_latency.p50_ms,
        report.update_latency.p99_ms
    );
    report.to_json()
}

fn main() {
    let mut shapes = vec![Shape::parity()];
    shapes.extend(BATCHES.iter().map(|&b| Shape::contended(b)));
    let runs: Vec<String> = shapes.iter().map(run).collect();
    let mut json = String::from("{\n  \"bench\": \"pipeline\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        // Indent the pretty-printed report two levels into the array.
        for (l, line) in r.lines().enumerate() {
            if l > 0 {
                json.push('\n');
            }
            json.push_str("    ");
            json.push_str(line);
        }
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_pipeline.json";
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("baseline written to {path}");
}
