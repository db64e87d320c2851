//! Scripted scenarios runnable on every execution substrate.
//!
//! A [`ScriptOp`] sequence is interpreted three ways — by the
//! discrete-event simulator, by a channel-transport cluster, and by a
//! TCP-transport cluster — and each interpretation is reduced to a
//! [`Fixpoint`]: the final per-site `(VN, SC, DS)` metadata, the length
//! of the global version chain, and the workload commit count. Because
//! all three substrates drive the same protocol kernel and every
//! decision quantity is an order-independent [`SiteSet`] derivation,
//! the fixpoints must be *identical* — the conformance suite pins that
//! for all six algorithms.
//!
//! Between ops each substrate runs to quiescence, so partitions and
//! faults never race in-flight traffic; that is what makes the
//! simulator's link topology and the cluster's node-boundary
//! reachability filter observationally equivalent.
//!
//! The one wall-clock quantity a fixpoint can depend on is who a round
//! closes without. The simulator leaves out exactly the sites that are
//! down or cut off; a live node leaves out whoever has not answered
//! when the round's straggler grace runs out. Scripted clusters
//! therefore boot with a long vote deadline ([`scripted`]), so that the
//! grace floor — a fixed fraction of it — is longer than a busy test
//! machine keeps a live peer descheduled. A durable peer votes only
//! after its prepare record is forced, and a busy disk holds an fsync
//! far longer than a scheduler holds a thread, so durable scripted
//! clusters get a longer deadline still.

use crate::cluster::{Cluster, ClusterConfig, DurabilityMode, TransportKind};
use crate::wire::ClientReply;
use dynvote_core::{AlgorithmKind, CopyMeta, SiteId, SiteSet};
use dynvote_protocol::EventTallies;
use std::time::Duration;

/// The shortest vote deadline a scripted cluster runs with: its grace
/// floor (an eighth) is then the 25 ms default vote deadline, the
/// tolerance these scripts have always passed under.
const SCRIPT_VOTE_DEADLINE: Duration = Duration::from_millis(200);

/// The same for a durable scripted cluster: a grace floor of 125 ms,
/// for a vote that waits on an fsync.
const DURABLE_SCRIPT_VOTE_DEADLINE: Duration = Duration::from_secs(1);

/// `config` with its vote deadline raised to at least 200 ms, or 1 s if
/// it is durable: what every cluster whose final `(VN, SC, DS)` is
/// compared with the simulator's must boot from (see the module
/// comment). Only a round that cannot reach a distinguished set of
/// votes waits the deadline out, so a longer one slows only the
/// script's rejected steps.
#[must_use]
pub fn scripted(mut config: ClusterConfig) -> ClusterConfig {
    let floor = match config.durability {
        DurabilityMode::Amnesia => SCRIPT_VOTE_DEADLINE,
        DurabilityMode::Durable { .. } => DURABLE_SCRIPT_VOTE_DEADLINE,
    };
    config.node.vote_deadline = config.node.vote_deadline.max(floor);
    config
}

/// One step of a scripted scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptOp {
    /// Submit an update coordinated by this site.
    Update(SiteId),
    /// Submit a read-only request at this site.
    Read(SiteId),
    /// Crash this site.
    Crash(SiteId),
    /// Recover this site (runs `Make_Current`).
    Recover(SiteId),
    /// Impose a partition; each group communicates only internally.
    Partition(Vec<SiteSet>),
    /// Repair all links (crashed sites stay crashed).
    Heal,
}

/// The observable outcome a scenario converges to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fixpoint {
    /// Final `(VN, SC, DS)` of every site, in site order.
    pub metas: Vec<CopyMeta>,
    /// Versions on the global chain (restart commits included).
    pub chain_len: u64,
    /// Workload updates that committed (restart commits excluded).
    pub committed: u64,
    /// True if no consistency invariant was violated.
    pub consistent: bool,
}

/// The canonical five-site scripted scenario: quorum commits, a
/// partition with a rejected minority, healing with catch-up, and a
/// crash/recover cycle ending in a `Make_Current` restart.
#[must_use]
pub fn demo_script() -> Vec<ScriptOp> {
    let s = |text: &str| SiteSet::parse(text).expect("valid site list");
    vec![
        ScriptOp::Update(SiteId(0)),
        ScriptOp::Update(SiteId(1)),
        ScriptOp::Partition(vec![s("ABC"), s("DE")]),
        ScriptOp::Update(SiteId(2)), // commits in the majority
        ScriptOp::Update(SiteId(3)), // rejected in the minority
        ScriptOp::Read(SiteId(4)),   // likewise rejected
        ScriptOp::Heal,
        ScriptOp::Update(SiteId(3)), // D coordinates and catches up
        ScriptOp::Crash(SiteId(4)),
        ScriptOp::Update(SiteId(0)), // commits around the crashed site
        ScriptOp::Recover(SiteId(4)),
        ScriptOp::Update(SiteId(4)),
        ScriptOp::Read(SiteId(1)),
    ]
}

/// Interpret `script` on a live cluster over the given transport and
/// reduce to its fixpoint. Panics if the cluster misbehaves at the
/// harness level (node gone, quiescence never reached).
#[must_use]
pub fn run_cluster(
    algorithm: AlgorithmKind,
    n: usize,
    transport: TransportKind,
    script: &[ScriptOp],
) -> Fixpoint {
    run_cluster_traced(algorithm, n, transport, script).0
}

/// Like [`run_cluster`], additionally returning the per-site protocol
/// event tallies the run produced.
#[must_use]
pub fn run_cluster_traced(
    algorithm: AlgorithmKind,
    n: usize,
    transport: TransportKind,
    script: &[ScriptOp],
) -> (Fixpoint, EventTallies) {
    let config = ClusterConfig::new(n, algorithm).with_transport(transport);
    run_cluster_config(&config, script)
}

/// Interpret `script` on a cluster booted from an explicit
/// [`ClusterConfig`] ([`scripted`]) — the hook the conformance suite
/// uses to run the same scenario with durability on and compare
/// fixpoints.
#[must_use]
pub fn run_cluster_config(config: &ClusterConfig, script: &[ScriptOp]) -> (Fixpoint, EventTallies) {
    let n = config.n;
    let cluster = Cluster::boot(&scripted(config.clone())).expect("boot cluster");
    for op in script {
        match op {
            ScriptOp::Update(site) => {
                cluster.client(*site).update().expect("update request");
            }
            ScriptOp::Read(site) => {
                cluster.client(*site).read().expect("read request");
            }
            ScriptOp::Crash(site) => cluster.crash(*site).expect("crash"),
            ScriptOp::Recover(site) => cluster.recover(*site).expect("recover"),
            ScriptOp::Partition(groups) => cluster.set_partition(groups).expect("partition"),
            ScriptOp::Heal => cluster.heal_links().expect("heal"),
        }
        assert!(
            cluster.await_quiescence(Duration::from_secs(10)),
            "cluster failed to quiesce after {op:?}"
        );
    }
    let mut metas = Vec::with_capacity(n);
    for i in 0..n {
        match cluster.probe(SiteId(i as u8)).expect("probe") {
            ClientReply::Probe { meta, .. } => metas.push(meta),
            other => panic!("probe returned {other:?}"),
        }
    }
    // Steps run to quiescence, so no two coordinators ever met: the
    // cluster must not have learned a route or forwarded an op.
    for i in 0..n {
        let stats = cluster.shard_stats(SiteId(i as u8));
        assert_eq!(
            (
                stats.contended(),
                stats.routed_objects(),
                stats.forwarded_out()
            ),
            (0, 0, 0),
            "site {i} raced in a quiesced script"
        );
    }
    let audit = cluster.audit().expect("audit");
    let tallies = cluster.event_tallies().expect("event tallies");
    cluster.shutdown();
    (
        Fixpoint {
            metas,
            chain_len: audit.chain_len,
            committed: audit.commits,
            consistent: audit.consistent,
        },
        tallies,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_demo_script_exercises_partition_and_recovery() {
        let script = demo_script();
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Partition(_))));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Crash(_))));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Recover(_))));
        assert!(script.iter().any(|op| matches!(op, ScriptOp::Heal)));
    }
}
