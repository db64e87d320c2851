//! Boot a live five-site cluster, load it, kill a node under load,
//! watch quorum commits continue, then restart the node and watch it
//! catch up via `Make_Current`.
//!
//! ```sh
//! cargo run --example live_cluster
//! ```
//!
//! Unlike the discrete-event simulator, this runs the protocol kernel
//! on real OS threads and wall-clock timers (in-process channel
//! transport here; `dynvote serve` / `dynvote loadgen` do the same
//! over loopback TCP).

use dynvote::cluster::wire::{ClientOp, ClientReply};
use dynvote::cluster::{Cluster, ClusterConfig, LoadGen, LoadGenConfig, WorkloadTarget};
use dynvote::{AlgorithmKind, SiteId};
use std::time::Duration;

fn main() {
    let n = 5;
    let config = ClusterConfig::new(n, AlgorithmKind::Hybrid);
    let cluster = Cluster::boot(&config).expect("boot cluster");
    println!("booted {n}-site hybrid cluster (channel transport)\n");

    let burst = |label: &str, cluster: &Cluster| {
        let lg = LoadGenConfig {
            duration: Duration::from_millis(600),
            read_fraction: 0.1,
            seed: 7,
            ..LoadGenConfig::default()
        };
        let targets = (0..3)
            .map(|w| Box::new(cluster.client(SiteId(w))) as Box<dyn WorkloadTarget>)
            .collect();
        let report = LoadGen::run(&lg, targets).expect("valid loadgen config");
        println!(
            "{label}: {} commits in {:.2}s ({:.0}/s), p50 {:.3} ms, p99 {:.3} ms",
            report.committed,
            report.duration_secs,
            report.throughput_per_sec,
            report.update_latency.p50_ms,
            report.update_latency.p99_ms,
        );
        report.committed
    };

    // Phase 1: all five sites up.
    let healthy = burst("all sites up      ", &cluster);
    assert!(healthy > 0);

    // Phase 2: kill site E under load — four sites still form a
    // distinguished partition, so commits continue.
    cluster.crash(SiteId(4)).expect("crash E");
    println!("\ncrashed site E");
    let degraded = burst("site E down       ", &cluster);
    assert!(degraded > 0, "quorum commits must continue with E down");
    let meta_e_down = probe_meta(&cluster, SiteId(4));

    // Phase 3: restart E. Make_Current pulls it back to currency.
    cluster.recover(SiteId(4)).expect("recover E");
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    println!("\nrecovered site E (restart protocol ran)");
    let after = burst("after recovery    ", &cluster);
    assert!(after > 0);

    // E's copy must have caught up past where it stood while down.
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let meta_e = probe_meta(&cluster, SiteId(4));
    assert!(
        meta_e.version > meta_e_down.version,
        "E caught up: VN {} -> {}",
        meta_e_down.version,
        meta_e.version
    );
    println!(
        "site E caught up: VN {} while down -> VN {} after recovery",
        meta_e_down.version, meta_e.version
    );

    // Every copy converged, every log is a gapless prefix of the chain.
    let audit = cluster.audit().expect("audit");
    println!(
        "\nfinal audit: {} workload commits, chain length {}, consistent = {}",
        audit.commits, audit.chain_len, audit.consistent
    );
    assert!(audit.consistent, "violations: {:?}", audit.violations);
    cluster.shutdown();
}

fn probe_meta(cluster: &Cluster, site: SiteId) -> dynvote::CopyMeta {
    let mut client = cluster.client(site);
    match client.request(ClientOp::Probe { key: 0 }).expect("probe") {
        ClientReply::Probe { meta, .. } => meta,
        other => panic!("unexpected probe reply {other:?}"),
    }
}
