//! Bench: parallel shard execution scaling curve.
//!
//! The `shard` bench measures what sharding the *data plane* buys; a
//! single node thread still runs every shard's kernel serially. This
//! bench measures what the shard *pool* buys on top: the same 5-site,
//! 128-object channel workload at 1, 2, 4, and 8 shard-affine worker
//! threads per node. Worker 0's curve point is the single-threaded
//! in-line path (no pool threads at all), so the curve's first entry
//! doubles as a regression guard for the pre-pool runtime.
//!
//! The JSON records the host's `cores` alongside the curve, because
//! the speedup column is only meaningful relative to it: on a 1-core
//! container every multi-worker point degenerates to a context-switch
//! tax measurement and the honest expectation is ~1.0x, not 2.5x.
//! Per-object determinism across worker counts is pinned separately by
//! `tests/conformance.rs::sharded_*`; this bench re-checks the cheap
//! invariant (audit consistency, commit accounting) so a number from a
//! broken cluster cannot be reported.
//!
//! The curve is printed to stderr and as one JSON document to stdout.
//! Set `DYNVOTE_BENCH_QUICK=1` for a short CI smoke run.

use dynvote_cluster::{Cluster, ClusterConfig, KeyDist, LoadGen, LoadGenConfig};
use dynvote_core::{par, AlgorithmKind, SiteId};
use std::time::Duration;

const SITES: usize = 5;
const WORKERS: usize = 16;
const KEYS: u32 = 128;
const SHARD_THREADS: [usize; 4] = [1, 2, 4, 8];

fn duration() -> Duration {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(5)
    }
}

struct Point {
    shard_threads: usize,
    committed: u64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn run(shard_threads: usize) -> Point {
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_objects(KEYS as usize)
        .with_shard_threads(shard_threads);
    let cluster = Cluster::boot(&config).expect("cluster boots");
    let loadgen = LoadGenConfig {
        concurrency: WORKERS,
        duration: duration(),
        read_fraction: 0.0,
        keys: KEYS,
        key_dist: KeyDist::Uniform,
        seed: 42,
    };
    let report = LoadGen::run(&loadgen, |w| {
        Box::new(cluster.client(SiteId((w % SITES) as u8)))
    })
    .expect("load generation runs");
    let run = format!("shard-threads={shard_threads}");
    dynvote_bench::assert_audited(&cluster, &run, report.committed);
    cluster.shutdown();
    Point {
        shard_threads,
        committed: report.committed,
        throughput: report.throughput_per_sec,
        p50_ms: report.update_latency.p50_ms,
        p99_ms: report.update_latency.p99_ms,
    }
}

fn main() {
    let cores = par::available_parallelism();
    let points: Vec<Point> = SHARD_THREADS.iter().map(|&w| run(w)).collect();
    let base = points[0].throughput.max(f64::EPSILON);
    let mut json = format!(
        "{{\n  \"bench\": \"shard_par\",\n  \"cores\": {cores},\n  \"sites\": {SITES},\n  \
         \"objects\": {KEYS},\n  \"workers\": {WORKERS},\n  \"curve\": [\n"
    );
    eprintln!("shard pool scaling ({KEYS} objects, {WORKERS} loadgen workers, {cores} core(s)):");
    for (i, p) in points.iter().enumerate() {
        let speedup = p.throughput / base;
        eprintln!(
            "  shard-threads {:>2}: {:>9} committed  {:>12.0} commits/sec  p50 {:>7.3} ms  \
             p99 {:>7.3} ms  speedup {speedup:.3}x",
            p.shard_threads, p.committed, p.throughput, p.p50_ms, p.p99_ms
        );
        json.push_str(&format!(
            "    {{\"shard_threads\": {}, \"committed\": {}, \"throughput_per_sec\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"speedup\": {speedup:.3}}}{}\n",
            p.shard_threads,
            p.committed,
            p.throughput,
            p.p50_ms,
            p.p99_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    print!("{json}");
}
