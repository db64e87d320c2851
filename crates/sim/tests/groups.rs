//! Multi-file groups under the full nemesis — what only the shared
//! engine can express: crash storms, lossy bursts and one-way partition
//! windows racing the legs of groups over three different algorithms,
//! replayed from JSON.

use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_sim::{
    FaultSchedule, GroupStats, NemesisProfile, ObjectId, SimConfig, SimStats, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One run of mixed-algorithm groups racing a fault schedule: a
/// group every 0.2 time units at a random site over a random subset
/// of three files. Returns everything a replay must reproduce.
fn run_under(schedule: &FaultSchedule, seed: u64) -> (GroupStats, SimStats, f64) {
    let kinds = [
        AlgorithmKind::Hybrid,
        AlgorithmKind::Voting,
        AlgorithmKind::DynamicLinear,
    ];
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut s = Simulation::with_files(config, &kinds);
    let all = [ObjectId(0), ObjectId(1), ObjectId(2)];
    s.submit_group(SiteId(0), &all).unwrap();
    s.quiesce();
    let start = s.clock();
    s.apply_schedule(schedule);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6007);
    for tick in 1..=200u32 {
        s.run_until(start + 0.2 * f64::from(tick));
        let site = SiteId::new(rng.gen_range(0..5));
        let files: Vec<ObjectId> = (0..3).filter(|_| rng.gen_bool(0.6)).map(ObjectId).collect();
        if !files.is_empty() {
            s.submit_group(site, &files);
        }
    }
    s.heal();
    s.quiesce();
    let violations = s.check_invariants();
    assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    let partial = s.check_atomicity();
    assert!(
        partial.is_empty(),
        "seed {seed}: partial groups {partial:?}"
    );
    (s.group_stats().clone(), s.stats().clone(), s.clock())
}

#[test]
fn groups_stay_atomic_under_generated_fault_schedules_and_replay() {
    let profile = NemesisProfile {
        crashes: 10,
        one_way: 6,
        lossy: 3,
        ..NemesisProfile::default()
    };
    let mut commits = 0;
    for seed in 0..24 {
        let schedule = FaultSchedule::generate(5, 40.0, seed, &profile);
        let first = run_under(&schedule, seed);
        let replayed = FaultSchedule::from_json(&schedule.to_json()).unwrap();
        assert_eq!(first, run_under(&replayed, seed), "seed {seed}");
        commits += first.0.group_commits;
    }
    assert!(commits > 24, "the faults left room for commits: {commits}");
}
