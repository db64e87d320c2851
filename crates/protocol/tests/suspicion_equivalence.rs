//! Peer suspicion, the straggler grace and the re-test are timing
//! shortcuts, not protocol changes. Two properties pin that.
//!
//! **Right when right.** For every algorithm and every random
//! crash/recover script, a run whose sites keep a suspicion set — and
//! one that also arms a grace beside every vote deadline and re-tests
//! open rounds when the set grows — must leave every site with
//! **byte-identical** `(VN, SC, DS)` metadata and log to a run that
//! does none of it. Each step runs to rest before the next, as the
//! cluster's conformance scripts do, so the silent peers are the ones
//! really down and the only difference between the runs is *when* a
//! round with a dead peer decides — on its last live reply, at the
//! re-test, at the grace, or at the deadline — never *what* it decides
//! with.
//!
//! **Safe when wrong.** A grace that runs out while live peers' votes
//! are still on their way leaves them out of a round they could have
//! joined, and suspects them falsely. That changes `SC` and `DS` — it
//! is a different, equally legal history — but it must never cost
//! consistency: with graces fired at arbitrary points of arbitrarily
//! interleaved traffic, no version is ever committed twice and every
//! site's log stays a gapless prefix of the one chain.

mod common;

use common::Net;
use dynvote_core::{AlgorithmKind, SiteId};
use proptest::prelude::*;

const N: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Step {
    Crash(u8),
    Recover(u8),
    /// An update at this site. In a graced run `true` also has the site
    /// learn, once the live votes are in, that the down sites are
    /// silent — as a node does from a round on another object — and
    /// re-test the round.
    Update(u8, bool),
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    // One crash and one recovery for every four updates.
    proptest::collection::vec(
        (0..6u8, 0..N as u8, any::<bool>()).prop_map(|(kind, site, retest)| match kind {
            0 => Step::Crash(site),
            1 => Step::Recover(site),
            _ => Step::Update(site, retest),
        }),
        1..=40,
    )
}

/// How much of a node's shortcut machinery a run switches on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Hinted,
    /// Hinted, plus a grace beside every deadline and the re-tests.
    Graced,
}

fn run_script(algorithm: AlgorithmKind, script: &[Step], mode: Mode) -> Net {
    let mut net = Net::new(algorithm, N, mode != Mode::Plain);
    if mode == Mode::Graced {
        net = net.graced();
    }
    for (i, step) in script.iter().enumerate() {
        let payload = 1000 + i as u64;
        match *step {
            Step::Crash(s) => net.crash(SiteId(s)),
            Step::Recover(s) => net.recover(SiteId(s), payload),
            Step::Update(s, retest) => {
                // A crashed site accepts no client work.
                if !net.is_down(SiteId(s)) {
                    net.start_batch(SiteId(s), &[payload]);
                    if retest && mode == Mode::Graced {
                        net.drain();
                        net.suspect_the_down(SiteId(s));
                    }
                }
            }
        }
        net.settle();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hinted_runs_equal_unhinted_runs(script in script_strategy()) {
        for algorithm in AlgorithmKind::ALL {
            let plain = run_script(algorithm, &script, Mode::Plain);
            prop_assert_eq!(plain.closed_early, 0);
            prop_assert_eq!(plain.audit(), Vec::<String>::new());
            for mode in [Mode::Hinted, Mode::Graced] {
                let short = run_script(algorithm, &script, mode);
                // Every deadline the plain run waits out, a shortcut run
                // either waits out too or replaces by an earlier close.
                prop_assert!(short.deadlines_missed <= plain.deadlines_missed);
                prop_assert_eq!(
                    short.deadlines_missed + short.closed_early + short.graces_missed.unwrap_or(0),
                    plain.deadlines_missed,
                    "{:?}/{:?}: a round with silent peers closes exactly one way",
                    algorithm,
                    mode
                );
                prop_assert_eq!(&short.ledger, &plain.ledger);
                for (h, p) in short.sites.iter().zip(&plain.sites) {
                    prop_assert_eq!(
                        h.meta(),
                        p.meta(),
                        "{:?}/{:?}: site {} metadata diverges",
                        algorithm,
                        mode,
                        h.id()
                    );
                    prop_assert_eq!(
                        h.log(),
                        p.log(),
                        "{:?}/{:?}: site {} log diverges",
                        algorithm,
                        mode,
                        h.id()
                    );
                }
            }
        }
    }

    #[test]
    fn graces_at_arbitrary_points_never_cost_consistency(script in racing_strategy()) {
        for algorithm in AlgorithmKind::ALL {
            let mut net = Net::new(algorithm, N, true).graced();
            for (i, step) in script.iter().enumerate() {
                let payload = 1000 + i as u64;
                match *step {
                    Racing::Crash(s) => net.crash(SiteId(s)),
                    Racing::Recover(s) => net.recover(SiteId(s), payload),
                    Racing::Update(s) => {
                        if !net.is_down(SiteId(s)) {
                            net.start_batch(SiteId(s), &[payload]);
                        }
                    }
                    Racing::Deliver(frames) => net.deliver_next(frames as usize),
                    Racing::Grace(s) => net.fire_grace(SiteId(s)),
                    Racing::Settle => net.settle(),
                }
                prop_assert_eq!(net.audit(), Vec::<String>::new(), "{:?} after {:?}", algorithm, step);
            }
            // Run out: deadlines and termination rounds included.
            for _ in 0..4 {
                net.settle();
            }
            prop_assert_eq!(net.audit(), Vec::<String>::new(), "{:?} at rest", algorithm);
        }
    }
}

/// A step of a script whose traffic is *not* run to rest: frames are
/// delivered a few at a time, so coordinators race, and a grace may run
/// out at any point of a round — before a single vote is in, between
/// two, or with everyone answered.
#[derive(Debug, Clone, Copy)]
enum Racing {
    Crash(u8),
    Recover(u8),
    Update(u8),
    Deliver(u8),
    Grace(u8),
    Settle,
}

fn racing_strategy() -> impl Strategy<Value = Vec<Racing>> {
    proptest::collection::vec(
        (0..16u8, 0..N as u8, 1..6u8).prop_map(|(kind, site, frames)| match kind {
            0 => Racing::Crash(site),
            1 => Racing::Recover(site),
            2 => Racing::Settle,
            3..=6 => Racing::Update(site),
            7..=10 => Racing::Grace(site),
            _ => Racing::Deliver(frames),
        }),
        1..=80,
    )
}

/// The hint must actually bite, or the equivalence above is vacuous:
/// with one site down, only the first round pays the deadline.
#[test]
fn one_crash_costs_one_deadline() {
    let script = [
        Step::Crash(4),
        Step::Update(0, false),
        Step::Update(0, false),
        Step::Update(0, false),
        Step::Update(0, false),
    ];
    for algorithm in AlgorithmKind::ALL {
        let plain = run_script(algorithm, &script, Mode::Plain);
        let hinted = run_script(algorithm, &script, Mode::Hinted);
        assert_eq!(plain.deadlines_missed, 4, "{algorithm:?}");
        assert_eq!(hinted.deadlines_missed, 1, "{algorithm:?}");
        assert_eq!(hinted.closed_early, 3, "{algorithm:?}");
        assert_eq!(hinted.sites[0].meta(), plain.sites[0].meta());
        assert_eq!(hinted.sites[0].meta().version, 4, "{algorithm:?}");
        // With a grace armed no round waits out a deadline at all: the
        // first closes at its grace, the rest on their last live vote.
        let graced = run_script(algorithm, &script, Mode::Graced);
        assert_eq!(graced.deadlines_missed, 0, "{algorithm:?}");
        assert_eq!(graced.graces_missed, Some(1), "{algorithm:?}");
        assert_eq!(graced.closed_early, 3, "{algorithm:?}");
        assert_eq!(graced.sites[0].meta(), plain.sites[0].meta());
    }
}

/// The re-test bites too: the round's live votes are in, then the site
/// learns E is down — it closes there and then, not at a grace.
#[test]
fn a_retest_closes_the_round_already_waiting() {
    let script = [Step::Crash(4), Step::Update(0, true)];
    for algorithm in AlgorithmKind::ALL {
        let plain = run_script(algorithm, &script, Mode::Plain);
        let graced = run_script(algorithm, &script, Mode::Graced);
        assert_eq!(graced.closed_early, 1, "{algorithm:?}");
        assert_eq!(graced.graces_missed, Some(0), "{algorithm:?}");
        assert_eq!(graced.deadlines_missed, 0, "{algorithm:?}");
        assert_eq!(graced.sites[0].meta(), plain.sites[0].meta());
    }
}

/// Safe to be wrong, step by step: A's grace runs out with two votes in
/// and D's and E's still on the wire. The round commits without them
/// (`SC` 3 where the unhurried run has 5), their late votes void A's
/// false suspicion, the termination protocol releases them, and the
/// next round counts all five on one unbroken chain.
#[test]
fn a_grace_that_leaves_live_peers_out_is_a_legal_history() {
    let (a, d, e) = (SiteId(0), SiteId(3), SiteId(4));
    let mut net = Net::new(AlgorithmKind::Hybrid, N, true).graced();
    net.start_batch(a, &[1]);
    net.deliver_next(4); // the four vote requests
    assert!(net.deliver_from(SiteId(1)) && net.deliver_from(SiteId(2)));
    net.fire_grace(a);
    assert_eq!(net.graces_missed, Some(1));
    assert_eq!(net.suspected_by(a), [d, e].into_iter().collect());
    assert_eq!(net.sites[a.index()].meta().cardinality, 3);
    assert!(net.sites[d.index()].is_locked(), "D granted and waits");

    assert!(net.deliver_from(d), "D's vote, late");
    assert!(net.suspected_by(a).is_empty(), "heard from: all forgiven");
    net.settle();
    net.settle();
    assert!(!net.sites[d.index()].is_locked() && !net.sites[e.index()].is_locked());
    assert_eq!(
        net.sites[d.index()].meta().version,
        0,
        "left out, not harmed"
    );

    net.start_batch(a, &[2]);
    net.settle();
    for site in &net.sites {
        assert_eq!(site.meta().version, 2, "site {}", site.id());
        assert_eq!(site.meta().cardinality, 5, "site {}", site.id());
    }
    assert_eq!(net.audit(), Vec::<String>::new());
}
