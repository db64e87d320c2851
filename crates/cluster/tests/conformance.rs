//! Transport conformance: the same scripted scenario — updates, a
//! partition with a rejected minority, healing with catch-up, and a
//! crash/recover cycle — interpreted by the discrete-event simulator,
//! by a channel-transport cluster, and by a TCP-loopback cluster must
//! converge to the *identical* fixpoint: byte-identical per-site
//! `(VN, SC, DS)` metadata, the same global chain length, and the same
//! workload commit count. One test per algorithm, so failures name the
//! algorithm and the suite parallelizes across test threads.
//!
//! Each algorithm also runs a **persistence leg**: the same script on a
//! durable cluster (real WAL + snapshots underneath, the Recover step
//! rebooting its site from disk) must reach the identical fixpoint, and
//! the bytes left on disk after shutdown must replay to exactly that
//! fixpoint — byte-identical metadata and gapless logs.

mod common;

use common::{
    demo_script, run_cluster, run_cluster_config, run_cluster_traced, scripted, Fixpoint, ScriptOp,
};
use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{
    Cluster, ClusterConfig, LoadGen, LoadGenConfig, TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, CopyMeta, SiteId, SiteSet};
use dynvote_protocol::{DurableState, EventKind, EventTallies};
use dynvote_sim::{SimConfig, Simulation};
use dynvote_storage::{FsyncPolicy, NodeStore};
use std::thread;
use std::time::Duration;

/// Interpret `script` on the discrete-event simulator and reduce to its
/// fixpoint plus the protocol event tallies the run produced. Lives in
/// the conformance suite (not the library) so `dynvote-cluster` itself
/// never links the simulator.
fn run_sim_traced(
    algorithm: AlgorithmKind,
    n: usize,
    script: &[ScriptOp],
) -> (Fixpoint, EventTallies) {
    let config = SimConfig {
        n,
        algorithm,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config);
    for op in script {
        match op {
            ScriptOp::Update(site) => {
                sim.submit_update(*site);
            }
            ScriptOp::Read(site) => {
                sim.submit_read(*site);
            }
            ScriptOp::Crash(site) => sim.crash_site(*site),
            ScriptOp::Recover(site) => sim.recover_site(*site),
            ScriptOp::Partition(groups) => sim.impose_partitions(groups),
            // Link repair only — the cluster's Heal resets
            // reachability without recovering crashed sites, and
            // `Simulation::heal` would recover them too.
            ScriptOp::Heal => sim.impose_partitions(&[SiteSet::all(n)]),
        }
        sim.quiesce();
    }
    let fixpoint = Fixpoint {
        metas: (0..n).map(|i| sim.site(SiteId(i as u8)).meta()).collect(),
        chain_len: sim.ledger().iter().filter(|e| e.is_some()).count() as u64,
        committed: sim.stats().commits,
        consistent: sim.check_invariants().is_empty(),
    };
    (fixpoint, sim.event_tallies())
}

fn run_sim(algorithm: AlgorithmKind, n: usize, script: &[ScriptOp]) -> Fixpoint {
    run_sim_traced(algorithm, n, script).0
}

/// Serialize metadata through the wire codec so "byte-identical" is
/// literal, not just `PartialEq`.
fn meta_bytes_of(metas: &[CopyMeta]) -> Vec<u8> {
    use dynvote_protocol::{Message, TxnId};
    let mut out = Vec::new();
    for (i, meta) in metas.iter().enumerate() {
        out.extend(dynvote_cluster::wire::encode_message(
            &Message::VoteGranted {
                txn: TxnId::new(SiteId(0), i as u64),
                meta: *meta,
                from: SiteId(i as u8),
            },
        ));
    }
    out
}

fn meta_bytes(fp: &Fixpoint) -> Vec<u8> {
    meta_bytes_of(&fp.metas)
}

fn conformance(algorithm: AlgorithmKind) {
    let script = demo_script();
    let sim = run_sim(algorithm, 5, &script);
    assert!(sim.consistent, "{algorithm:?}: simulator run inconsistent");
    let channel = run_cluster(algorithm, 5, TransportKind::Channel, &script);
    assert_eq!(
        sim, channel,
        "{algorithm:?}: simulator vs channel transport"
    );
    let tcp = run_cluster(algorithm, 5, TransportKind::Tcp, &script);
    assert_eq!(sim, tcp, "{algorithm:?}: simulator vs TCP transport");
    assert_eq!(
        meta_bytes(&sim),
        meta_bytes(&channel),
        "{algorithm:?}: channel metadata bytes diverge"
    );
    assert_eq!(
        meta_bytes(&sim),
        meta_bytes(&tcp),
        "{algorithm:?}: TCP metadata bytes diverge"
    );
    persistence_leg(algorithm, &script, &sim);
}

/// The durability hook must be observationally free: the same script on
/// a durable cluster reaches the identical fixpoint, and a cold replay
/// of the bytes it left behind reconstructs that fixpoint exactly.
fn persistence_leg(algorithm: AlgorithmKind, script: &[ScriptOp], reference: &Fixpoint) {
    let n = 5;
    let dir = std::env::temp_dir().join(format!(
        "dynvote-conformance-{}-{}",
        algorithm.id(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ClusterConfig::new(n, algorithm).with_data_dir(&dir, FsyncPolicy::Always);
    let (durable, _) = run_cluster_config(&config, script);
    assert_eq!(
        reference, &durable,
        "{algorithm:?}: durable cluster fixpoint diverges"
    );
    assert_eq!(
        meta_bytes(reference),
        meta_bytes(&durable),
        "{algorithm:?}: durable metadata bytes diverge"
    );

    // Cold replay: what a never-crashed observer finds on disk equals
    // what the live cluster acknowledged.
    let mut disk = durable.clone();
    disk.metas.clear();
    for i in 0..n {
        let site_dir = dir.join(format!("site-{i}"));
        let (states, report) =
            NodeStore::inspect(&site_dir, DurableState::initial(n)).expect("inspect site dir");
        let state = &states[0];
        assert!(
            report.truncated.is_none(),
            "{algorithm:?}: site {i} torn after clean shutdown: {report:?}"
        );
        assert_eq!(
            state.meta.version,
            state.log.len() as u64,
            "{algorithm:?}: site {i} metadata disagrees with its log"
        );
        for (j, entry) in state.log.iter().enumerate() {
            assert_eq!(
                entry.version,
                (j + 1) as u64,
                "{algorithm:?}: site {i} log has a gap"
            );
        }
        disk.metas.push(state.meta);
    }
    assert_eq!(
        disk.metas, durable.metas,
        "{algorithm:?}: on-disk metadata diverges from the fixpoint"
    );
    assert_eq!(
        meta_bytes(&disk),
        meta_bytes(&durable),
        "{algorithm:?}: on-disk metadata bytes diverge"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn conformance_static_voting() {
    conformance(AlgorithmKind::Voting);
}

#[test]
fn conformance_dynamic_voting() {
    conformance(AlgorithmKind::DynamicVoting);
}

#[test]
fn conformance_dynamic_linear() {
    conformance(AlgorithmKind::DynamicLinear);
}

#[test]
fn conformance_hybrid() {
    conformance(AlgorithmKind::Hybrid);
}

#[test]
fn conformance_modified_hybrid() {
    conformance(AlgorithmKind::ModifiedHybrid);
}

#[test]
fn conformance_optimal_candidate() {
    conformance(AlgorithmKind::OptimalCandidate);
}

/// The simulator fixpoint is internally consistent before any
/// cross-substrate comparison — relocated here from the library when
/// the simulator became a dev-dependency of this crate.
#[test]
fn the_simulator_fixpoint_is_internally_consistent() {
    let fp = run_sim(AlgorithmKind::Hybrid, 5, &demo_script());
    assert!(fp.consistent);
    assert!(fp.committed >= 5, "commits: {}", fp.committed);
    assert!(fp.chain_len >= fp.committed);
    // After the final full-connectivity updates every site is
    // current.
    let top = fp.metas.iter().map(|m| m.version).max().unwrap();
    assert!(fp.metas.iter().all(|m| m.version == top));
}

/// The kernel's structured event stream is substrate-independent: the
/// scripted scenario must produce identical per-site, per-kind tallies
/// on the virtual-time simulator, the wall-clock channel and TCP
/// clusters, and a durable TCP cluster — modulo
/// [`EventKind::TerminationRound`], whose count depends on how retry
/// backoff races the vote deadline ([`EventTallies::deterministic`]
/// masks it). On the durable leg the script's Recover step reboots its
/// site from disk, swapping every kernel: the node's tally row must
/// survive the swap.
#[test]
fn protocol_event_tallies_match_across_substrates() {
    let script = demo_script();
    let (sim_fp, sim_tallies) = run_sim_traced(AlgorithmKind::Hybrid, 5, &script);
    let dir = std::env::temp_dir().join(format!("dynvote-tallies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable_tcp = ClusterConfig::new(5, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_data_dir(&dir, FsyncPolicy::Always);
    let legs = [
        (
            "channel",
            run_cluster_traced(AlgorithmKind::Hybrid, 5, TransportKind::Channel, &script),
        ),
        (
            "tcp",
            run_cluster_traced(AlgorithmKind::Hybrid, 5, TransportKind::Tcp, &script),
        ),
        ("durable tcp", run_cluster_config(&durable_tcp, &script)),
    ];
    std::fs::remove_dir_all(&dir).unwrap();

    let sim_det = sim_tallies.deterministic();
    for (leg, (cluster_fp, cluster_tallies)) in &legs {
        assert_eq!(&sim_fp, cluster_fp, "{leg}: fixpoints diverge");
        let cluster_det = cluster_tallies.deterministic();
        for i in 0..5 {
            let site = SiteId(i);
            assert_eq!(
                sim_det.row(site),
                cluster_det.row(site),
                "{leg}: site {site}: event tallies diverge \
                 (sim: {sim_det}, cluster: {cluster_det})"
            );
        }
    }

    // The scenario exercises the interesting vocabulary: quorum votes,
    // force-written commits, and a crash/recover cycle.
    assert!(sim_det.total(EventKind::VoteGranted) > 0);
    assert!(sim_det.total(EventKind::CommitForced) > 0);
    assert_eq!(sim_det.total(EventKind::Crashed), 1);
    assert_eq!(sim_det.total(EventKind::Recovered), 1);
}

// ------------------------------------------------------- multi-object leg

/// One step of a keyed scenario: an update aimed at a named object, or
/// a node-level fault (which hits every shard hosted on that node at
/// once — faults are per-site, never per-object).
#[derive(Debug, Clone)]
enum KeyedStep {
    Update(u32, SiteId),
    Crash(SiteId),
    Recover(SiteId),
}

/// Three objects' update streams interleaved with one node-level
/// crash/recover cycle, so per-object cardinalities diverge and the
/// recovered node must catch up on every shard.
fn keyed_script() -> Vec<KeyedStep> {
    use KeyedStep::{Crash, Recover, Update};
    vec![
        Update(0, SiteId(0)),
        Update(1, SiteId(1)),
        Update(2, SiteId(2)),
        Update(0, SiteId(3)),
        Update(1, SiteId(4)),
        Crash(SiteId(4)),
        Update(0, SiteId(0)),
        Update(2, SiteId(1)),
        Recover(SiteId(4)),
        Update(1, SiteId(0)),
        Update(2, SiteId(4)),
        Update(0, SiteId(2)),
    ]
}

/// Project the keyed script down to one object: faults are global (a
/// crashed node takes every shard with it), updates keep only this
/// object's stream. If shards really are independent state machines,
/// the projection run on a *single-object* simulator is the exact
/// per-object reference for the multi-object cluster.
fn project(script: &[KeyedStep], object: u32) -> Vec<ScriptOp> {
    script
        .iter()
        .filter_map(|step| match step {
            KeyedStep::Update(o, site) if *o == object => Some(ScriptOp::Update(*site)),
            KeyedStep::Update(..) => None,
            KeyedStep::Crash(site) => Some(ScriptOp::Crash(*site)),
            KeyedStep::Recover(site) => Some(ScriptOp::Recover(*site)),
        })
        .collect()
}

/// Per-object simulator references for the keyed script: the fixpoint
/// each object's projection reaches on a single-object simulator.
fn keyed_references(algorithm: AlgorithmKind, n: usize, objects: u32) -> Vec<Fixpoint> {
    let script = keyed_script();
    (0..objects)
        .map(|o| {
            let fp = run_sim(algorithm, n, &project(&script, o));
            assert!(fp.consistent, "{algorithm:?}: object {o} reference run");
            fp
        })
        .collect()
}

/// Interpret the keyed script on a cluster booted from `config` and
/// assert every object reaches byte-identical per-site `(VN, SC, DS)`
/// metadata to its single-object simulator reference.
fn run_keyed_and_check(config: &ClusterConfig, label: &str, refs: &[Fixpoint]) {
    let n = 5;
    let script = keyed_script();
    let cluster = Cluster::boot(&scripted(config.clone())).expect("boot sharded cluster");
    for step in &script {
        match step {
            KeyedStep::Update(o, site) => {
                cluster.client(*site).update_key(*o).expect("keyed update");
            }
            KeyedStep::Crash(site) => cluster.crash(*site).expect("crash"),
            KeyedStep::Recover(site) => cluster.recover(*site).expect("recover"),
        }
        assert!(
            cluster.await_quiescence(Duration::from_secs(10)),
            "{label}: no quiescence after {step:?}"
        );
    }
    for (o, reference) in refs.iter().enumerate() {
        let mut metas = Vec::with_capacity(n);
        for i in 0..n {
            match cluster
                .probe_object(SiteId(i as u8), o as u32)
                .expect("probe object")
            {
                ClientReply::Probe { meta, .. } => metas.push(meta),
                other => panic!("probe returned {other:?}"),
            }
        }
        assert_eq!(
            metas, reference.metas,
            "{label}: object {o} metadata diverges from its projection"
        );
        assert_eq!(
            meta_bytes_of(&metas),
            meta_bytes_of(&reference.metas),
            "{label}: object {o} metadata bytes diverge"
        );
    }
    for i in 0..n {
        let stats = cluster.shard_stats(SiteId(i as u8)).expect("shard stats");
        assert_eq!(
            (stats.routed_objects(), stats.forwarded_out()),
            (0, 0),
            "{label}: site {i} routed ops in a quiesced script"
        );
    }
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{label}: {:?}", audit.violations);
    assert_eq!(
        audit.commits,
        refs.iter().map(|r| r.committed).sum::<u64>(),
        "{label}: total commits diverge from the projections"
    );
    cluster.shutdown();
}

/// The multi-object conformance leg: a sharded cluster interpreting the
/// keyed script must leave every object with byte-identical per-site
/// `(VN, SC, DS)` metadata to a single-object simulator run of that
/// object's projection — on both the channel and the TCP transport.
fn multi_object_conformance(algorithm: AlgorithmKind) {
    const OBJECTS: u32 = 3;
    let n = 5;
    let refs = keyed_references(algorithm, n, OBJECTS);
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let config = ClusterConfig::new(n, algorithm)
            .with_transport(transport)
            .with_objects(OBJECTS as usize);
        run_keyed_and_check(&config, &format!("{algorithm:?}/{transport:?}"), &refs);
    }
}

#[test]
fn multi_object_static_voting() {
    multi_object_conformance(AlgorithmKind::Voting);
}

#[test]
fn multi_object_dynamic_voting() {
    multi_object_conformance(AlgorithmKind::DynamicVoting);
}

#[test]
fn multi_object_dynamic_linear() {
    multi_object_conformance(AlgorithmKind::DynamicLinear);
}

#[test]
fn multi_object_hybrid() {
    multi_object_conformance(AlgorithmKind::Hybrid);
}

#[test]
fn multi_object_modified_hybrid() {
    multi_object_conformance(AlgorithmKind::ModifiedHybrid);
}

#[test]
fn multi_object_optimal_candidate() {
    multi_object_conformance(AlgorithmKind::OptimalCandidate);
}

/// The commit-pipelining conformance leg: each keyed update step fires
/// `BURST` concurrent clients at the same object, so ops pile into the
/// per-object queue and drain as multi-op rounds. The reference is the
/// *sequential* projection — the same updates one-op-per-round on a
/// single-object simulator. Batched execution must reach byte-identical
/// per-object `(VN, SC, DS)` metadata, a gapless log of exactly the
/// reference length, and the same commit totals. (Byte-level log equality between batched and sequential runs
/// is pinned at the kernel layer, where payloads are controlled; here
/// concurrent arrival order assigns them.)
fn pipelined_determinism(algorithm: AlgorithmKind) {
    const OBJECTS: u32 = 3;
    const BURST: usize = 3;
    let n = 5;
    let script = keyed_script();
    // Sequential projections with every update step expanded BURST-fold.
    let refs: Vec<Fixpoint> = (0..OBJECTS)
        .map(|o| {
            let proj: Vec<ScriptOp> = script
                .iter()
                .flat_map(|step| match step {
                    KeyedStep::Update(obj, site) if *obj == o => {
                        vec![ScriptOp::Update(*site); BURST]
                    }
                    KeyedStep::Update(..) => Vec::new(),
                    KeyedStep::Crash(site) => vec![ScriptOp::Crash(*site)],
                    KeyedStep::Recover(site) => vec![ScriptOp::Recover(*site)],
                })
                .collect();
            let fp = run_sim(algorithm, n, &proj);
            assert!(fp.consistent, "{algorithm:?}: object {o} reference run");
            fp
        })
        .collect();

    let label = format!("{algorithm:?}/pipelined");
    let config = ClusterConfig::new(n, algorithm).with_objects(OBJECTS as usize);
    let cluster = Cluster::boot(&scripted(config)).expect("boot pipelined cluster");
    for step in &script {
        match step {
            KeyedStep::Update(o, site) => {
                thread::scope(|scope| {
                    let cluster = &cluster;
                    let handles: Vec<_> = (0..BURST)
                        .map(|_| {
                            let mut client = cluster.client(*site);
                            scope.spawn(move || client.update_key(*o).expect("burst update"))
                        })
                        .collect();
                    for handle in handles {
                        let reply = handle.join().expect("burst client");
                        assert!(
                            matches!(reply, ClientReply::Committed { .. }),
                            "{label}: burst op must commit, got {reply:?}"
                        );
                    }
                });
            }
            KeyedStep::Crash(site) => cluster.crash(*site).expect("crash"),
            KeyedStep::Recover(site) => cluster.recover(*site).expect("recover"),
        }
        assert!(
            cluster.await_quiescence(Duration::from_secs(10)),
            "{label}: no quiescence after {step:?}"
        );
    }
    for (o, reference) in refs.iter().enumerate() {
        let mut metas = Vec::with_capacity(n);
        for i in 0..n {
            match cluster
                .probe_object(SiteId(i as u8), o as u32)
                .expect("probe object")
            {
                ClientReply::Probe { meta, .. } => metas.push(meta),
                other => panic!("probe returned {other:?}"),
            }
        }
        assert_eq!(
            metas, reference.metas,
            "{label}: object {o} metadata diverges from the sequential projection"
        );
        assert_eq!(
            meta_bytes_of(&metas),
            meta_bytes_of(&reference.metas),
            "{label}: object {o} metadata bytes diverge"
        );
        // The batched log is a gapless 1..=VN chain of exactly the
        // projection's length.
        match cluster
            .client(SiteId(0))
            .request(ClientOp::DumpLog { key: o as u32 })
            .expect("dump log")
        {
            ClientReply::Log { meta, entries } => {
                assert_eq!(
                    entries.len() as u64,
                    reference.metas[0].version,
                    "{label}: object {o} log length diverges"
                );
                assert_eq!(meta.version, entries.len() as u64);
                for (j, entry) in entries.iter().enumerate() {
                    assert_eq!(
                        entry.version,
                        (j + 1) as u64,
                        "{label}: object {o} batched log has a gap"
                    );
                }
            }
            other => panic!("dump-log returned {other:?}"),
        }
    }
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{label}: {:?}", audit.violations);
    assert_eq!(
        audit.commits,
        refs.iter().map(|r| r.committed).sum::<u64>(),
        "{label}: total commits diverge from the projections"
    );
    cluster.shutdown();
}

#[test]
fn pipelined_static_voting() {
    pipelined_determinism(AlgorithmKind::Voting);
}

#[test]
fn pipelined_dynamic_voting() {
    pipelined_determinism(AlgorithmKind::DynamicVoting);
}

#[test]
fn pipelined_dynamic_linear() {
    pipelined_determinism(AlgorithmKind::DynamicLinear);
}

#[test]
fn pipelined_hybrid() {
    pipelined_determinism(AlgorithmKind::Hybrid);
}

#[test]
fn pipelined_modified_hybrid() {
    pipelined_determinism(AlgorithmKind::ModifiedHybrid);
}

#[test]
fn pipelined_optimal_candidate() {
    pipelined_determinism(AlgorithmKind::OptimalCandidate);
}

/// Cross-shard independence: a partition that leaves object A without a
/// distinguished partition (its dynamic cardinality shrank to a group
/// that is now mostly unreachable) must not block commits on object B —
/// B's shard sees the same partition but its own voting state still
/// yields a quorum. A is *rejected*, not hung, and heals with the links.
#[test]
fn partition_wedging_one_object_does_not_block_the_other() {
    let n = 5;
    let quiesce = |cluster: &Cluster| {
        assert!(
            cluster.await_quiescence(Duration::from_secs(10)),
            "cluster failed to quiesce"
        )
    };
    let s = |text: &str| SiteSet::parse(text).expect("valid site list");
    // Who is counted decides who is wedged later: no live site may be
    // left out of a round.
    let config = scripted(ClusterConfig::new(n, AlgorithmKind::DynamicVoting).with_objects(2));
    let cluster = Cluster::boot(&config).expect("boot");

    // Shrink object A's voting population: partition {A,B,C} | {D,E}
    // and commit A twice in the majority, so A's DS becomes {A,B,C}.
    cluster.set_partition(&[s("ABC"), s("DE")]).expect("cut");
    quiesce(&cluster);
    for version in 1..=2u64 {
        let reply = cluster.client(SiteId(0)).update_key(0).expect("update A");
        assert!(
            matches!(reply, ClientReply::Committed { version: v } if v == version),
            "A in the majority: {reply:?}"
        );
        quiesce(&cluster);
    }

    // Re-cut to {C,D,E} | {A,B}: object A has one current copy (C) of
    // cardinality 3 reachable — no distinguished partition — while
    // object B's five version-0 copies make {C,D,E} distinguished.
    cluster.set_partition(&[s("CDE"), s("AB")]).expect("recut");
    quiesce(&cluster);
    let wedged = cluster.client(SiteId(2)).update_key(0).expect("update A");
    assert!(
        matches!(wedged, ClientReply::Rejected),
        "object A must be wedged by the partition: {wedged:?}"
    );
    for version in 1..=3u64 {
        let reply = cluster.client(SiteId(2)).update_key(1).expect("update B");
        assert!(
            matches!(reply, ClientReply::Committed { version: v } if v == version),
            "object B must commit despite A's wedge: {reply:?}"
        );
        quiesce(&cluster);
    }

    // Healing the links frees A — no per-object residue from the wedge.
    cluster.heal_links().expect("heal");
    quiesce(&cluster);
    let reply = cluster.client(SiteId(0)).update_key(0).expect("update A");
    assert!(
        matches!(reply, ClientReply::Committed { version: 3 }),
        "object A must resume after healing: {reply:?}"
    );
    quiesce(&cluster);

    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    assert_eq!(audit.commits, 6, "A committed 3, B committed 3");
    cluster.shutdown();
}

/// End-to-end smoke: concurrent load with a crash/restart in the
/// middle must stay serializable — every committed reply is accounted
/// for by exactly one coordinator, every log is a gapless prefix of
/// the shared chain, and no divergence is flagged.
#[test]
fn loadgen_under_crash_restart_stays_serializable() {
    let config = ClusterConfig::new(5, AlgorithmKind::Hybrid);
    let cluster = Cluster::boot(&config).expect("boot");

    let mut chaos = cluster.client(SiteId(4));
    let chaos_thread = thread::spawn(move || {
        thread::sleep(Duration::from_millis(250));
        chaos.request(ClientOp::Crash).expect("crash");
        thread::sleep(Duration::from_millis(200));
        chaos.request(ClientOp::Recover).expect("recover");
    });

    let lg = LoadGenConfig {
        duration: Duration::from_millis(800),
        read_fraction: 0.1,
        seed: 42,
        ..LoadGenConfig::default()
    };
    let targets = (0..3)
        .map(|w| Box::new(cluster.client(SiteId(w))) as Box<dyn WorkloadTarget>)
        .collect();
    let report = LoadGen::run(&lg, targets).expect("loadgen config is valid");
    chaos_thread.join().expect("chaos thread");

    assert!(
        cluster.await_quiescence(Duration::from_secs(10)),
        "cluster failed to quiesce after the load burst"
    );
    let audit = cluster.audit().expect("audit");
    cluster.shutdown();

    assert!(report.committed > 0, "no commits under load");
    assert_eq!(
        report.committed, audit.commits,
        "client-observed commits disagree with coordinator-counted commits"
    );
    assert!(
        audit.consistent,
        "consistency violated: {:?}",
        audit.violations
    );
    assert!(report.update_latency.p50_ms <= report.update_latency.p99_ms);
}
