//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches serve two purposes:
//!
//! * **reproduction targets** — one bench per paper table/figure
//!   (`fig1_scenario`, `table1_crossovers`, `fig3_fig4_availability`),
//!   timing the code that regenerates it and asserting its shape;
//! * **performance characterisation** — kernel decision latency, Markov
//!   solve scaling, protocol-simulation and Monte-Carlo throughput.

#![forbid(unsafe_code)]

use dynvote_cluster::Cluster;
use dynvote_core::{
    AlgorithmKind, CopyMeta, LinearOrder, PartitionView, ReplicaSystem, SiteId, SiteSet,
};

/// How every cluster bench run ends: a number from a cluster that is
/// inconsistent, lost count of a commit or committed nothing is not
/// reported.
pub fn assert_audited(cluster: &Cluster, run: &str, committed: u64) {
    let audit = cluster.audit().expect("audit succeeds");
    assert!(audit.consistent, "{run}: cluster metadata inconsistent");
    assert_eq!(
        audit.commits, committed,
        "{run}: coordinator commits disagree with client-observed commits"
    );
    assert!(committed > 0, "{run}: nothing committed");
}

/// Build a reachable `n`-site system state by a fixed partition script,
/// for decision-kernel benchmarks.
#[must_use]
pub fn representative_system(
    kind: AlgorithmKind,
    n: usize,
) -> ReplicaSystem<Box<dyn dynvote_core::ReplicaControl>> {
    let mut sys = ReplicaSystem::new(n, kind.instantiate(n));
    // Walk the quorum down and back up once so the metadata is
    // interesting (trios/singles installed).
    let mut partition = SiteSet::all(n);
    sys.attempt_update(partition);
    for i in (2..n).rev() {
        partition.remove(SiteId::new(i));
        sys.attempt_update(partition);
    }
    sys.attempt_update(SiteSet::all(n));
    sys
}

/// Materialise a partition view against a system (what a coordinator
/// assembles per update). The responses are collected into the
/// caller's `buf`, which the returned view borrows — mirroring how the
/// protocol layer assembles views against its own reply storage with
/// zero copies.
#[must_use]
pub fn view_of<'a>(
    sys: &ReplicaSystem<Box<dyn dynvote_core::ReplicaControl>>,
    order: &'a LinearOrder,
    partition: SiteSet,
    buf: &'a mut Vec<(SiteId, CopyMeta)>,
) -> PartitionView<'a> {
    buf.clear();
    buf.extend(partition.iter().map(|s| (s, sys.meta(s))));
    PartitionView::new(sys.n(), order, buf).expect("valid view")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_system_is_current_everywhere() {
        for kind in AlgorithmKind::ALL {
            let sys = representative_system(kind, 6);
            let latest = sys.latest_version();
            assert!(latest >= 2, "{kind}");
            assert!(sys.metas().iter().all(|m| m.version == latest), "{kind}");
        }
    }

    #[test]
    fn view_helper_covers_partition() {
        let order = LinearOrder::lexicographic(6);
        let sys = representative_system(AlgorithmKind::Hybrid, 6);
        let p = SiteSet::parse("ACE").unwrap();
        let mut buf = Vec::new();
        let view = view_of(&sys, &order, p, &mut buf);
        assert_eq!(view.members(), p);
    }
}
