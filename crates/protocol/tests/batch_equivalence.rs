//! Commit-pipelining equivalence: a multi-op batched quorum round must
//! be a pure wire optimization. For every algorithm and every random
//! interleaved keyed script, running each op group through
//! one multi-payload [`Input::Update`] (one vote/commit round sealing k
//! consecutive log entries) must leave every site's every object with
//! **byte-identical** `(VN, SC, DS)` metadata and log to running the
//! same payloads one-op-per-round.
//!
//! Driven by a full-connectivity in-memory message pump: every `Send`
//! and `Broadcast` action is delivered synchronously, timers never need
//! to fire (no faults, no losses), so each round resolves before the
//! next op group starts — exactly the sequential projection the node
//! runtime's per-object FIFO guarantees. Either way, every site's
//! persist effects replay to exactly its durable state.

use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_protocol::persist::{apply_op, PersistEffect};
use dynvote_protocol::{Action, DurableState, Input, Message, ObjectId, ShardedSite};
use proptest::prelude::*;
use std::collections::VecDeque;

const N: usize = 5;
const OBJECTS: usize = 3;

fn fresh_sites(algorithm: AlgorithmKind) -> Vec<ShardedSite> {
    (0..N)
        .map(|i| ShardedSite::new(SiteId(i as u8), N, OBJECTS, || algorithm.instantiate(N)))
        .collect()
}

/// Per site, the persist effects it emitted, in order.
type Persisted = Vec<Vec<(ObjectId, PersistEffect)>>;

/// Deliver every staged Send/Broadcast until the network drains,
/// keeping every persist effect in `persisted`. Full connectivity, no
/// drops: timers and resolution actions are ignored — a round either
/// completes inside this pump or the test's quiescence assertions below
/// catch the hang.
fn pump(sites: &mut [ShardedSite], persisted: &mut Persisted, seed: Vec<Action>, from: SiteId) {
    let mut queue: VecDeque<(SiteId, SiteId, Message)> = VecDeque::new();
    let mut stage =
        |queue: &mut VecDeque<(SiteId, SiteId, Message)>, from: SiteId, actions: Vec<Action>| {
            for action in actions {
                match action {
                    Action::Send { to, msg } => queue.push_back((from, to, msg)),
                    Action::Broadcast { msg } => {
                        for i in 0..N {
                            let to = SiteId(i as u8);
                            if to != from {
                                queue.push_back((from, to, msg.clone()));
                            }
                        }
                    }
                    // No faults: deadlines never expire, and the local
                    // bookkeeping actions carry no messages.
                    Action::SetTimer { .. }
                    | Action::ClearTimers { .. }
                    | Action::Resolved { .. }
                    | Action::CommitRecorded { .. }
                    | Action::DecisionReady { .. }
                    | Action::Hint(_)
                    | Action::Event(_) => {}
                    Action::Persist { object, effect } => {
                        persisted[from.index()].push((object, effect));
                    }
                }
            }
        };
    stage(&mut queue, from, seed);
    while let Some((from, to, msg)) = queue.pop_front() {
        let mut out = Vec::new();
        let object = msg.txn().object;
        sites[to.index()].step(object, Input::Message { from, msg }, &mut out);
        stage(&mut queue, to, out);
    }
}

/// One scripted op group: `ops` consecutive updates against `object`,
/// coordinated by `site`. The batched run seals them in one round; the
/// sequential run commits them one round at a time.
#[derive(Debug, Clone)]
struct OpGroup {
    object: u32,
    site: u8,
    ops: usize,
}

fn groups_strategy() -> impl Strategy<Value = Vec<OpGroup>> {
    proptest::collection::vec(
        (0..OBJECTS as u32, 0..N as u8, 1..=6usize).prop_map(|(object, site, ops)| OpGroup {
            object,
            site,
            ops,
        }),
        1..=12,
    )
}

/// Run the script; `batched` selects which start path each group takes.
/// Payloads are a deterministic counter, so both runs feed identical
/// bytes into the log.
fn run_script(algorithm: AlgorithmKind, script: &[OpGroup], batched: bool) -> Vec<ShardedSite> {
    let mut sites = fresh_sites(algorithm);
    let mut persisted: Persisted = vec![Vec::new(); N];
    let mut payload = 0u64;
    for group in script {
        let object = ObjectId(group.object);
        let payloads: Vec<u64> = (0..group.ops)
            .map(|_| {
                payload += 1;
                payload
            })
            .collect();
        if batched {
            let mut out = Vec::new();
            let started = sites[group.site as usize].step(
                object,
                Input::Update {
                    payloads: &payloads,
                    hold: false,
                },
                &mut out,
            );
            assert!(started.is_some(), "unlocked object refused a batch");
            pump(&mut sites, &mut persisted, out, SiteId(group.site));
        } else {
            for p in payloads {
                let mut out = Vec::new();
                let input = Input::Update {
                    payloads: &[p],
                    hold: false,
                };
                sites[group.site as usize].step(object, input, &mut out);
                pump(&mut sites, &mut persisted, out, SiteId(group.site));
            }
        }
        // The round must have fully resolved: pipelining never leaves a
        // lock behind under full connectivity.
        for site in &sites {
            assert!(!site.any_locked(), "{algorithm:?}: round left a lock held");
            assert!(!site.any_in_doubt(), "{algorithm:?}: round left doubt");
        }
    }
    for (site, effects) in sites.iter().zip(&persisted) {
        for (object, shard) in site.iter() {
            let mut replayed = DurableState::initial(N);
            for (_, effect) in effects.iter().filter(|(o, _)| *o == object) {
                apply_op(&mut replayed, &effect.op(shard.log()));
            }
            assert_eq!(&replayed, shard.durable(), "site {} {object}", site.id());
        }
    }
    sites
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipelining conformance contract, at the kernel boundary:
    /// batched and one-op-per-round execution of the same interleaved
    /// keyed script are indistinguishable in every site's every
    /// object's `(VN, SC, DS)` and log — for all six algorithms.
    #[test]
    fn batched_rounds_equal_sequential_rounds(script in groups_strategy()) {
        for algorithm in AlgorithmKind::ALL {
            let batched = run_script(algorithm, &script, true);
            let sequential = run_script(algorithm, &script, false);
            for (b, s) in batched.iter().zip(&sequential) {
                for o in 0..OBJECTS as u32 {
                    let b_shard = b.shard(ObjectId(o)).expect("hosted object");
                    let s_shard = s.shard(ObjectId(o)).expect("hosted object");
                    prop_assert_eq!(
                        b_shard.meta(),
                        s_shard.meta(),
                        "{:?}: site {} object {} metadata diverges",
                        algorithm,
                        b.id(),
                        o
                    );
                    prop_assert_eq!(
                        b_shard.log(),
                        s_shard.log(),
                        "{:?}: site {} object {} log diverges",
                        algorithm,
                        b.id(),
                        o
                    );
                }
            }
        }
    }
}

/// Pin one concrete interleaving deterministically (the proptest above
/// shrinks through random ones): two objects' batches interleaved with
/// a lone op, VN advancing by the batch size each round.
#[test]
fn batch_advances_vn_by_k_entries() {
    let script = [
        OpGroup {
            object: 0,
            site: 0,
            ops: 4,
        },
        OpGroup {
            object: 1,
            site: 2,
            ops: 1,
        },
        OpGroup {
            object: 0,
            site: 3,
            ops: 2,
        },
    ];
    let sites = run_script(AlgorithmKind::Hybrid, &script, true);
    for site in &sites {
        let o0 = site.shard(ObjectId(0)).unwrap();
        assert_eq!(o0.meta().version, 6);
        assert_eq!(
            o0.log().iter().map(|e| e.version).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6],
            "k consecutive entries per batch"
        );
        assert_eq!(site.shard(ObjectId(1)).unwrap().meta().version, 1);
    }
}
