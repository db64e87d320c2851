//! The persist stream is the durable state: under random schedules of
//! batched updates, lock races (one round aborts), crashes in the
//! middle of a round (prepare records left in doubt, the termination
//! protocol and `Make_Current` at recovery), every site's
//! [`Action::Persist`](dynvote_protocol::Action::Persist) effects,
//! replayed in order through `apply_op` the way WAL recovery does,
//! rebuild exactly its `durable()` state — for all six algorithms.

mod common;

use common::Net;
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_protocol::PersistEffect;
use proptest::prelude::*;

const N: usize = 5;

#[derive(Debug, Clone)]
enum Step {
    /// A batched round of `ops` updates coordinated by `site`, run to
    /// rest.
    Update { site: u8, ops: usize },
    /// Two coordinators start at once; one of them may lose the race.
    Race { a: u8, b: u8 },
    /// `coord` starts a round, `frames` frames are delivered, then
    /// `victim` crashes and the rest runs to rest.
    CrashMidRound {
        coord: u8,
        frames: usize,
        victim: u8,
    },
    /// `site` comes back and runs its restart protocol.
    Recover { site: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let site = || 0..N as u8;
    ((0..4u8, site()), (site(), 1..=3usize, 0..12usize)).prop_map(
        |((kind, site), (other, ops, frames))| match kind {
            0 => Step::Update { site, ops },
            1 => Step::Race { a: site, b: other },
            2 => Step::CrashMidRound {
                coord: site,
                frames,
                victim: other,
            },
            _ => Step::Recover { site },
        },
    )
}

fn run(algorithm: AlgorithmKind, steps: &[Step]) -> Net {
    let mut net = Net::new(algorithm, N, false);
    let mut payload = 0u64;
    let mut next = || {
        payload += 1;
        payload
    };
    for step in steps {
        match *step {
            Step::Update { site, ops } => {
                let site = SiteId(site);
                if !net.is_down(site) {
                    let payloads: Vec<u64> = (0..ops).map(|_| next()).collect();
                    net.start_batch(site, &payloads);
                }
            }
            Step::Race { a, b } => {
                for site in [SiteId(a), SiteId(b)] {
                    if !net.is_down(site) {
                        net.start_batch(site, &[next()]);
                    }
                }
            }
            Step::CrashMidRound {
                coord,
                frames,
                victim,
            } => {
                if !net.is_down(SiteId(coord)) {
                    net.start_batch(SiteId(coord), &[next()]);
                }
                net.deliver_next(frames);
                net.crash(SiteId(victim));
            }
            Step::Recover { site } => net.recover(SiteId(site), next()),
        }
        net.settle();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn persist_effects_replay_to_the_durable_state(
        steps in proptest::collection::vec(step_strategy(), 1..=14),
    ) {
        for algorithm in AlgorithmKind::ALL {
            let net = run(algorithm, &steps);
            for (i, actor) in net.sites.iter().enumerate() {
                let site = SiteId(i as u8);
                prop_assert_eq!(
                    &net.replayed(site),
                    actor.durable(),
                    "{:?}: site {} replays to a different state",
                    algorithm,
                    site
                );
            }
        }
    }
}

/// One schedule pinned: a subordinate crashes holding a prepare record,
/// recovers in doubt and learns the outcome — its stream must carry the
/// prepare, the commit it learned and the clear.
#[test]
fn an_in_doubt_restart_replays_to_the_durable_state() {
    let steps = [
        Step::CrashMidRound {
            coord: 0,
            frames: 4,
            victim: 2,
        },
        Step::Recover { site: 2 },
        Step::Update { site: 1, ops: 2 },
    ];
    let net = run(AlgorithmKind::Hybrid, &steps);
    for (i, actor) in net.sites.iter().enumerate() {
        assert_eq!(&net.replayed(SiteId(i as u8)), actor.durable(), "site {i}");
    }
    let stream = &net.persisted[2];
    let prepared = stream
        .iter()
        .position(|e| matches!(e, PersistEffect::Prepared(..)))
        .expect("site 2 prepared");
    let cleared = stream
        .iter()
        .position(|e| matches!(e, PersistEffect::PrepareCleared(..)))
        .expect("site 2's doubt was resolved");
    assert!(prepared < cleared);
    assert!(net.sites[2].meta().version >= 1, "site 2 caught up");
    assert!(net.audit().is_empty(), "{:?}", net.audit());
}
