//! Peer suspicion is a timing hint, not a protocol change: for every
//! algorithm and every random crash/recover script, a run whose sites
//! keep a suspicion set (and so close rounds without waiting out the
//! vote deadline for a silent peer) must leave every site with
//! **byte-identical** `(VN, SC, DS)` metadata and log to a run that
//! never sets the hint.
//!
//! Each step runs to rest before the next, as the cluster's conformance
//! scripts do, so the only difference between the two runs is *when* a
//! round with a dead peer decides — on its last live reply, or at the
//! deadline — never *what* it decides with.

mod common;

use common::Net;
use dynvote_core::{AlgorithmKind, SiteId};
use proptest::prelude::*;

const N: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Step {
    Crash(u8),
    Recover(u8),
    Update(u8),
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    // One crash and one recovery for every four updates.
    proptest::collection::vec(
        (0..6u8, 0..N as u8).prop_map(|(kind, site)| match kind {
            0 => Step::Crash(site),
            1 => Step::Recover(site),
            _ => Step::Update(site),
        }),
        1..=40,
    )
}

fn run_script(algorithm: AlgorithmKind, script: &[Step], hinted: bool) -> Net {
    let mut net = Net::new(algorithm, N, hinted);
    for (i, step) in script.iter().enumerate() {
        let payload = 1000 + i as u64;
        match *step {
            Step::Crash(s) => net.crash(SiteId(s)),
            Step::Recover(s) => net.recover(SiteId(s), payload),
            Step::Update(s) => {
                // A crashed site accepts no client work.
                if !net.is_down(SiteId(s)) {
                    net.start_update(SiteId(s), payload);
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
            let hinted = run_script(algorithm, &script, true);
            let plain = run_script(algorithm, &script, false);
            prop_assert_eq!(plain.closed_early, 0);
            // Every deadline the plain run waits out, the hinted run
            // either waits out too or replaces by an early close.
            prop_assert!(hinted.deadlines_missed <= plain.deadlines_missed);
            for (h, p) in hinted.sites.iter().zip(&plain.sites) {
                prop_assert_eq!(
                    h.meta(),
                    p.meta(),
                    "{:?}: site {} metadata diverges",
                    algorithm,
                    h.id()
                );
                prop_assert_eq!(
                    h.log(),
                    p.log(),
                    "{:?}: site {} log diverges",
                    algorithm,
                    h.id()
                );
            }
        }
    }
}

/// The hint must actually bite, or the equivalence above is vacuous:
/// with one site down, only the first round pays the deadline.
#[test]
fn one_crash_costs_one_deadline() {
    let script = [
        Step::Crash(4),
        Step::Update(0),
        Step::Update(0),
        Step::Update(0),
        Step::Update(0),
    ];
    for algorithm in AlgorithmKind::ALL {
        let plain = run_script(algorithm, &script, false);
        let hinted = run_script(algorithm, &script, true);
        assert_eq!(plain.deadlines_missed, 4, "{algorithm:?}");
        assert_eq!(hinted.deadlines_missed, 1, "{algorithm:?}");
        assert_eq!(hinted.closed_early, 3, "{algorithm:?}");
        assert_eq!(hinted.sites[0].meta(), plain.sites[0].meta());
        assert_eq!(hinted.sites[0].meta().version, 4, "{algorithm:?}");
    }
}
