//! Single-writer routing on a live cluster: a site that has raced a
//! lower-numbered coordinator for an object hands that object's ops to
//! it instead of racing again — and what a client sees when the hand-off
//! meets a crash or a partition.
//!
//! Clients are released on a barrier so that their ops reach different
//! sites at the same instant; the counters are read through
//! [`Cluster::shard_stats`], the ones `/metrics` serves.

use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{Cluster, ClusterConfig, LocalClient, ShardStats, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use dynvote_protocol::ObjectId;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const N: usize = 5;
/// A learning phase ends long before this many ticks, or the test says
/// so instead of hanging.
const MAX_TICKS: usize = 5000;

fn boot(transport: TransportKind, objects: usize) -> Cluster {
    let mut config = ClusterConfig::new(N, AlgorithmKind::Hybrid)
        .with_transport(transport)
        .with_objects(objects);
    // No site is ever silent here, so no round should end on its
    // deadline — not even when the test binary's other clusters keep
    // a vote from being scheduled for longer than the default 25 ms.
    config.node.vote_deadline = Duration::from_secs(1);
    Cluster::boot(&config).expect("boot cluster")
}

fn stats(cluster: &Cluster, site: u8) -> &ShardStats {
    cluster.shard_stats(SiteId(site))
}

/// One tick: every client sends an update on `key` at the same instant.
/// Replies come back in client order.
fn tick(clients: &mut [LocalClient], key: u32) -> Vec<ClientReply> {
    let gate = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    client.update_key(key).expect("client request")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    })
}

fn committed(reply: &ClientReply) -> Option<u64> {
    match reply {
        ClientReply::Committed { version } => Some(*version),
        _ => None,
    }
}

/// Every commit a client was told about, per key, and the check that
/// they are exactly the object's chain: no op ran twice, none was acked
/// that is not there.
struct Acked(Vec<Vec<u64>>);

impl Acked {
    fn new(objects: usize) -> Acked {
        Acked(vec![Vec::new(); objects])
    }

    fn note(&mut self, key: u32, replies: &[ClientReply]) {
        self.0[key as usize].extend(replies.iter().filter_map(committed));
    }

    /// `extra[key]` commits were never acked as such (an op answered
    /// `TimedOut` that did run).
    fn assert_gapless(mut self, cluster: &Cluster, extra: &[u64]) {
        for (key, versions) in self.0.iter_mut().enumerate() {
            versions.sort_unstable();
            let len = cluster.chain_len_of(ObjectId(key as u32));
            let unacked = extra.get(key).copied().unwrap_or(0);
            assert_eq!(
                versions.len() as u64 + unacked,
                len,
                "key {key}: acked {versions:?}, chain holds {len}"
            );
            if unacked == 0 {
                let expected: Vec<u64> = (1..=len).collect();
                assert_eq!(*versions, expected, "key {key}");
            } else {
                assert!(versions.windows(2).all(|pair| pair[0] < pair[1]));
            }
        }
    }
}

fn finish(cluster: Cluster) {
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let audit = cluster.audit().expect("audit");
    assert!(audit.consistent, "{:?}", audit.violations);
    cluster.shutdown();
}

// ----- two rivals --------------------------------------------------------

/// Sites 0 and 1 get the same key at the same instant, tick after tick.
/// Each key is raced for until site 1 has learned its home; from then on
/// no op on it is refused, every site-1 op crosses exactly once, and the
/// acked versions are the chain.
fn two_rivals_stop_racing(transport: TransportKind) {
    const KEYS: u32 = 4;
    const STEADY_TICKS: usize = 200;
    let cluster = boot(transport, KEYS as usize);
    let mut clients = vec![cluster.client(SiteId(0)), cluster.client(SiteId(1))];
    let mut acked = Acked::new(KEYS as usize);
    let mut routed = [false; KEYS as usize];
    let mut refused = 0;
    let mut ticks = 0;
    let mut steady_left = STEADY_TICKS;
    while steady_left > 0 {
        assert!(
            ticks < MAX_TICKS,
            "only {routed:?} routed after {ticks} ticks"
        );
        let key = (ticks % KEYS as usize) as u32;
        ticks += 1;
        let steady = routed.iter().all(|&r| r);
        let hints = stats(&cluster, 1).routed_objects();
        let crossed = stats(&cluster, 1).forwarded_out();
        let replies = tick(&mut clients, key);
        acked.note(key, &replies);
        if routed[key as usize] {
            assert!(
                replies.iter().all(|r| committed(r).is_some()),
                "tick {ticks}, key {key}: refused after its race was learned: {replies:?}"
            );
            assert_eq!(stats(&cluster, 1).forwarded_out(), crossed + 1);
        } else {
            refused += replies.iter().filter(|r| committed(r).is_none()).count();
            routed[key as usize] = stats(&cluster, 1).routed_objects() > hints;
        }
        if steady {
            steady_left -= 1;
        }
    }
    // Every refusal a client saw was a lost race (site 1's parked
    // clients are forwarded instead, once it knows where to).
    let lost_races = stats(&cluster, 0).contended() + stats(&cluster, 1).contended();
    assert!(
        refused as u64 <= lost_races,
        "{refused} refusals, {lost_races} lost races"
    );
    assert_eq!(stats(&cluster, 1).forward_timeouts(), 0);
    assert_eq!(stats(&cluster, 1).routed_objects(), u64::from(KEYS));
    assert_eq!(
        stats(&cluster, 0).routed_objects(),
        0,
        "hints point downward"
    );
    assert_eq!(stats(&cluster, 0).forwarded_out(), 0);
    assert_eq!(
        stats(&cluster, 0).forwarded_in(),
        stats(&cluster, 1).forwarded_out()
    );
    assert!(stats(&cluster, 1).forwarded_out() >= STEADY_TICKS as u64);
    for bystander in 2..N as u8 {
        assert_eq!(stats(&cluster, bystander).forwarded_in(), 0);
        assert_eq!(stats(&cluster, bystander).forwarded_out(), 0);
    }
    acked.assert_gapless(&cluster, &[]);
    finish(cluster);
}

#[test]
fn two_rivals_stop_racing_channel_inline() {
    two_rivals_stop_racing(TransportKind::Channel);
}

#[test]
fn two_rivals_stop_racing_tcp_inline() {
    two_rivals_stop_racing(TransportKind::Tcp);
}

// ----- three rivals ------------------------------------------------------

/// Sites 0, 1 and 2 race for one key. Hints only ever move downward, so
/// all three end up writing through site 0 — and an op that was handed
/// to site 1 on the way there is coordinated at site 1, never passed on.
fn three_rivals_converge_on_the_lowest(transport: TransportKind) {
    const STEADY_TICKS: usize = 50;
    let cluster = boot(transport, 1);
    let mut clients: Vec<LocalClient> = (0..3).map(|s| cluster.client(SiteId(s))).collect();
    let mut acked = Acked::new(1);
    let mut steady = 0;
    let mut ticks = 0u64;
    while steady < STEADY_TICKS {
        assert!(
            (ticks as usize) < MAX_TICKS,
            "no convergence in {ticks} ticks"
        );
        ticks += 1;
        let into: Vec<u64> = (0..3).map(|s| stats(&cluster, s).forwarded_in()).collect();
        let replies = tick(&mut clients, 0);
        acked.note(0, &replies);
        let all_through_site_0 = replies.iter().all(|r| committed(r).is_some())
            && stats(&cluster, 0).forwarded_in() == into[0] + 2
            && stats(&cluster, 1).forwarded_in() == into[1]
            && stats(&cluster, 2).forwarded_in() == into[2];
        // Converged means it stays converged: one tick off resets.
        steady = if all_through_site_0 { steady + 1 } else { 0 };
    }
    for site in 0..3 {
        // One hop at most: a site forwards its own clients' ops only,
        // each once, so it can never have forwarded more than it was
        // asked. A second hop would show up here.
        assert!(stats(&cluster, site).forwarded_out() <= ticks);
        assert_eq!(stats(&cluster, site).forward_timeouts(), 0);
    }
    assert_eq!(stats(&cluster, 0).forwarded_out(), 0);
    let crossed: u64 = (0..3).map(|s| stats(&cluster, s).forwarded_out()).sum();
    let landed: u64 = (0..3).map(|s| stats(&cluster, s).forwarded_in()).sum();
    assert_eq!(crossed, landed);
    acked.assert_gapless(&cluster, &[]);
    finish(cluster);
}

#[test]
fn three_rivals_converge_channel_inline() {
    three_rivals_converge_on_the_lowest(TransportKind::Channel);
}

#[test]
fn three_rivals_converge_tcp() {
    three_rivals_converge_on_the_lowest(TransportKind::Tcp);
}

// ----- no contention, no routing ----------------------------------------

/// The mechanism is learned from contention only: coordinators on
/// disjoint keys at the same instant, and coordinators taking turns on
/// one key, never forward anything.
fn uncontended_traffic_is_never_forwarded(transport: TransportKind) {
    const TURN_KEY: u32 = 8;
    let cluster = boot(transport, 9);
    let mut acked = Acked::new(9);
    for round in 0..50u32 {
        // Four coordinators at once, each on a key of its own.
        let gate = Barrier::new(4);
        let replies: Vec<(u32, ClientReply)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u8)
                .map(|site| {
                    let (gate, cluster) = (&gate, &cluster);
                    let key = u32::from(site) * 2 + round % 2;
                    scope.spawn(move || {
                        let mut client = cluster.client(SiteId(site));
                        gate.wait();
                        (key, client.update_key(key).expect("client request"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (key, reply) in replies {
            assert!(committed(&reply).is_some(), "key {key}: {reply:?}");
            acked.note(key, &[reply]);
        }
        // Every site in turn on one key, each after the last turn's
        // commit has reached every copy (a vote request that overtakes
        // it finds the copy still locked — busy, though nobody raced).
        assert!(cluster.await_quiescence(Duration::from_secs(10)));
        let site = SiteId((round % N as u32) as u8);
        let reply = cluster
            .client(site)
            .update_key(TURN_KEY)
            .expect("client request");
        assert!(committed(&reply).is_some(), "turn {round}: {reply:?}");
        acked.note(TURN_KEY, &[reply]);
    }
    for site in 0..N as u8 {
        let s = stats(&cluster, site);
        assert_eq!(
            (
                s.forwarded_out(),
                s.forwarded_in(),
                s.forward_timeouts(),
                s.contended(),
                s.routed_objects()
            ),
            (0, 0, 0, 0, 0),
            "site {site}"
        );
    }
    acked.assert_gapless(&cluster, &[]);
    finish(cluster);
}

#[test]
fn uncontended_traffic_is_never_forwarded_channel() {
    uncontended_traffic_is_never_forwarded(TransportKind::Channel);
}

#[test]
fn uncontended_traffic_is_never_forwarded_tcp_inline() {
    uncontended_traffic_is_never_forwarded(TransportKind::Tcp);
}

// ----- faults ------------------------------------------------------------

/// Race sites 0 and 1 for key 0 until site 1 routes it to site 0, and
/// let the last race's commit reach every site.
fn teach_site_1_its_home(cluster: &Cluster, acked: &mut Acked) {
    let mut clients = vec![cluster.client(SiteId(0)), cluster.client(SiteId(1))];
    let mut ticks = 0;
    while stats(cluster, 1).routed_objects() == 0 {
        assert!(ticks < MAX_TICKS, "site 1 never raced site 0");
        ticks += 1;
        let replies = tick(&mut clients, 0);
        acked.note(0, &replies);
    }
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
}

fn set_reachable(cluster: &Cluster, site: u8, reachable: &str) {
    let set = SiteSet::parse(reachable).expect("valid site list");
    let reply = cluster
        .client(SiteId(site))
        .request(ClientOp::SetReachable(set))
        .expect("set reachable");
    assert_eq!(reply, ClientReply::Ok);
}

/// A forwarded op that meets a fault is answered `TimedOut` — it may or
/// may not have run — and is not run again; the hint is dropped with it,
/// so the client's next op is coordinated locally. Three faults, each
/// caught mid-stream: the home crashed; the home cut off from the origin
/// before the forward arrived; the origin cut off from the home after it
/// did.
fn a_forward_that_meets_a_fault_times_out_once(transport: TransportKind) {
    // Long enough that "still parked at the home" is a window the test
    // can act in without racing the clock.
    let vote_deadline = Duration::from_millis(150);
    let mut config = ClusterConfig::new(N, AlgorithmKind::Hybrid).with_transport(transport);
    config.node.vote_deadline = vote_deadline;
    let forward_deadline = 2 * (vote_deadline + config.node.catchup_deadline);
    let cluster = Cluster::boot(&config).expect("boot cluster");
    let mut acked = Acked::new(1);
    let mut origin = cluster.client(SiteId(1));
    // Commits no client was acked: restart rounds, and the op that ran
    // although its client was told `TimedOut`.
    let mut unacked = 0;
    let mut timeouts = 0;
    let mut expect_timeout = |origin: &mut LocalClient, what: &str| {
        let start = Instant::now();
        let reply = origin.update_key(0).expect("client request");
        assert_eq!(reply, ClientReply::TimedOut, "{what}");
        assert!(start.elapsed() >= forward_deadline, "{what}: gave up early");
        timeouts += 1;
        assert_eq!(stats(&cluster, 1).forward_timeouts(), timeouts, "{what}");
        assert_eq!(stats(&cluster, 1).routed_objects(), 0, "{what}: hint kept");
    };
    let commits_locally = |origin: &mut LocalClient, acked: &mut Acked, what: &str| {
        let crossed = stats(&cluster, 1).forwarded_out();
        let reply = origin.update_key(0).expect("client request");
        assert!(committed(&reply).is_some(), "{what}: {reply:?}");
        acked.note(0, &[reply]);
        assert_eq!(stats(&cluster, 1).forwarded_out(), crossed, "{what}");
    };

    // 1. The home is down. Nothing tells site 1 so: it forwards, hears
    // nothing, and says so.
    teach_site_1_its_home(&cluster, &mut acked);
    let chain = cluster.chain_len_of(ObjectId(0));
    cluster.crash(SiteId(0)).expect("crash");
    expect_timeout(&mut origin, "home crashed");
    assert_eq!(cluster.chain_len_of(ObjectId(0)), chain);
    commits_locally(&mut origin, &mut acked, "after the home crashed");
    let recover = |site: u8, unacked: &mut u64| {
        // The last commit's fan-out must land first, or the restart
        // round races it for the subordinates' locks.
        assert!(cluster.await_quiescence(Duration::from_secs(10)));
        let chain = cluster.chain_len_of(ObjectId(0));
        cluster.recover(SiteId(site)).expect("recover");
        assert!(cluster.await_quiescence(Duration::from_secs(10)));
        // The restart round commits a no-op version of its own.
        assert_eq!(cluster.chain_len_of(ObjectId(0)), chain + 1);
        *unacked += 1;
    };
    recover(0, &mut unacked);

    // 2. The partition has reached the home but not the origin: the
    // forward is dropped at the home's boundary.
    teach_site_1_its_home(&cluster, &mut acked);
    let chain = cluster.chain_len_of(ObjectId(0));
    set_reachable(&cluster, 0, "ACDE");
    expect_timeout(&mut origin, "forward cut off");
    assert_eq!(cluster.chain_len_of(ObjectId(0)), chain);
    commits_locally(&mut origin, &mut acked, "after the forward was cut off");
    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(10)));

    // 3. The forward arrives and the home runs it, but slowly (site 4 is
    // silent, so the round waits out the vote deadline) — and before the
    // answer leaves, the partition reaches the origin. The op commits at
    // the home, once; the origin never learns and must not run it again.
    teach_site_1_its_home(&cluster, &mut acked);
    // (Site 0 lost the race that taught site 1, so its copy is one
    // version behind. One forwarded op brings it current; otherwise
    // its next round would ask site 1, of all sites, for the entry.)
    let crossed = stats(&cluster, 1).forwarded_out();
    let reply = origin.update_key(0).expect("client request");
    assert!(committed(&reply).is_some(), "forwarded: {reply:?}");
    acked.note(0, &[reply]);
    assert_eq!(stats(&cluster, 1).forwarded_out(), crossed + 1);
    assert_eq!(stats(&cluster, 1).routed_objects(), 1);
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    let chain = cluster.chain_len_of(ObjectId(0));
    cluster.crash(SiteId(4)).expect("crash");
    let landed = stats(&cluster, 0).forwarded_in();
    std::thread::scope(|scope| {
        let waiting = scope.spawn(|| expect_timeout(&mut origin, "answer cut off"));
        let patience = Instant::now() + Duration::from_secs(5);
        while stats(&cluster, 0).forwarded_in() == landed {
            assert!(Instant::now() < patience, "the forward never landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        set_reachable(&cluster, 1, "BCDE");
        waiting.join().expect("origin client");
    });
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    assert_eq!(
        cluster.chain_len_of(ObjectId(0)),
        chain + 1,
        "the forwarded op ran at the home exactly once"
    );
    unacked += 1;
    commits_locally(&mut origin, &mut acked, "after the answer was cut off");

    cluster.heal_links().expect("heal");
    recover(4, &mut unacked);
    acked.assert_gapless(&cluster, &[unacked]);
    finish(cluster);
}

#[test]
fn a_forward_that_meets_a_fault_times_out_once_channel_inline() {
    a_forward_that_meets_a_fault_times_out_once(TransportKind::Channel);
}

#[test]
fn a_forward_that_meets_a_fault_times_out_once_tcp() {
    a_forward_that_meets_a_fault_times_out_once(TransportKind::Tcp);
}
